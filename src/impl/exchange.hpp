#pragma once
/// \file exchange.hpp
/// Rank-to-rank halo exchange over the message runtime, implementing the
/// paper's communication pattern (§IV-B): nonblocking receives for all six
/// neighbours posted up front, then serially per dimension: pack send
/// buffers (all threads), send, complete that dimension's receives, unpack
/// (all threads). Dimensions are serialized so corner data propagates
/// (x corners ride to y neighbours, x and y corners to z).
///
/// The staged entry points (post_recvs / start_dim / finish_dim) expose the
/// same machinery to the overlap implementations (§IV-C, §IV-I), which
/// interleave computation between a dimension's start and finish.

#include <array>
#include <vector>

#include "core/decomposition.hpp"
#include "core/halo.hpp"
#include "msg/comm.hpp"
#include "omp/thread_team.hpp"

namespace advect::impl {

/// Pack `region` of `f` into `out`, each team thread packing a row chunk
/// through core::pack when a team is given (the paper's "all threads copy
/// into send buffers").
void pack_parallel(const core::Field3& f, const core::Range3& region,
                   std::span<double> out, advect::omp::ThreadTeam* team);
/// Inverse of pack_parallel.
void unpack_parallel(core::Field3& f, const core::Range3& region,
                     std::span<const double> in, advect::omp::ThreadTeam* team);

/// Per-rank halo exchange state with persistent buffers. `depth` is the
/// ghost width exchanged (1 single-step; the fuse factor F for temporal
/// blocking, where one F-deep exchange feeds F fused steps).
class HaloExchange {
  public:
    HaloExchange(const core::Decomp3& decomp, int rank, int depth = 1);

    /// Post all six nonblocking receives ("the master thread first issues
    /// nonblocking receive calls for 6 neighbors").
    void post_recvs(msg::Communicator& comm);
    /// Pack and send both faces of one dimension.
    void start_dim(msg::Communicator& comm, const core::Field3& f, int dim,
                   advect::omp::ThreadTeam* team = nullptr);
    /// Complete both receives of one dimension and unpack into halos.
    void finish_dim(msg::Communicator& comm, core::Field3& f, int dim,
                    advect::omp::ThreadTeam* team = nullptr);
    /// First half of finish_dim: block until both of `dim`'s receives have
    /// landed (the plan executor's Comm/Wait tasks). Under a chaos drop
    /// scenario the wait retries on the plan's receive timeout, asking the
    /// communicator for retransmits job-wide (every process's session, on
    /// the forked transports) between attempts.
    void wait_dim(msg::Communicator& comm, int dim);
    /// Second half of finish_dim: unpack `dim`'s received faces into halos.
    /// Call only after wait_dim(dim).
    void unpack_dim(core::Field3& f, int dim,
                    advect::omp::ThreadTeam* team = nullptr);

    /// Full bulk-synchronous exchange: post_recvs, then per dimension
    /// start + finish in order.
    void exchange_all(msg::Communicator& comm, core::Field3& f,
                      advect::omp::ThreadTeam* team = nullptr);

    [[nodiscard]] const core::HaloPlan& plan() const { return plan_; }
    /// Neighbour rank in `dim`, `side` 0 = low, 1 = high.
    [[nodiscard]] int neighbor(int dim, int side) const {
        return nbr_[static_cast<std::size_t>(dim)][static_cast<std::size_t>(side)];
    }

  private:
    core::HaloPlan plan_;
    std::array<std::array<int, 2>, 3> nbr_{};
    std::array<std::array<std::vector<double>, 2>, 3> sbuf_;
    std::array<std::array<std::vector<double>, 2>, 3> rbuf_;
    std::array<std::array<msg::Request, 2>, 3> rreq_;
};

}  // namespace advect::impl
