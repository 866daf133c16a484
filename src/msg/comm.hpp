#pragma once
/// \file comm.hpp
/// The communicator and rank runtime. The API mirrors the MPI subset the
/// paper's implementations use: nonblocking point-to-point with tags,
/// waitall, barrier, and the small collectives needed for verification
/// (allreduce, broadcast). Every operation goes through a Transport
/// (msg/transport/transport.hpp): in-process mailboxes when ranks are
/// threads sharing a World (the "cluster in a process" substitution,
/// DESIGN.md §2), or the socket mesh of MeshTransport when ranks are
/// processes (docs/TRANSPORT.md).
///
/// Collectives are implemented as messages over the transport (a flat
/// gather/release tree through a root) on reserved system tags, so they
/// behave identically on every backend, appear at chaos injection sites
/// ("allreduce_sum", ...), and support deadlines: the timed overloads throw
/// CollectiveTimeoutError naming the stalled phase and rank instead of
/// hanging when a drop scenario swallows collective traffic.

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "msg/mailbox.hpp"
#include "msg/request.hpp"
#include "msg/transport/transport.hpp"

namespace advect::msg {

/// Deadline-slicing discipline shared by every retransmit-retry wait loop
/// (Communicator::await, impl::HaloExchange::wait_dim). A chaos drop
/// scenario's receive timeout sets the first wait slice; a zero or tiny
/// plan timeout must not degenerate into a busy retransmit storm, so the
/// slice is clamped to a floor and then grows exponentially (which is what
/// backs off the retransmit requests issued once per expired slice) up to a
/// cap. Scenarios with a generous timeout are unaffected: their first slice
/// is already at or past the cap.
inline constexpr double kMinRetrySliceSeconds = 1e-3;
inline constexpr double kRetrySliceCapSeconds = 0.25;

[[nodiscard]] inline double initial_retry_slice(double chaos_timeout) {
    return std::max(chaos_timeout, kMinRetrySliceSeconds);
}
[[nodiscard]] inline double next_retry_slice(double slice,
                                             double chaos_timeout) {
    return std::min(slice * 2.0,
                    std::max(kRetrySliceCapSeconds, chaos_timeout));
}

/// Shared state of one in-process "job": one mailbox per rank thread.
class World {
  public:
    explicit World(int nranks);

    [[nodiscard]] int size() const { return nranks_; }
    [[nodiscard]] Mailbox& mailbox(int rank) {
        return mailboxes_[static_cast<std::size_t>(rank)];
    }

  private:
    int nranks_;
    std::vector<Mailbox> mailboxes_;
};

/// A rank's handle on the job. Cheap to copy within the rank's thread.
class Communicator {
  public:
    /// In-process rank handle (ranks as threads; the default substrate).
    Communicator(std::shared_ptr<World> world, int rank);
    /// Rank handle over an explicit transport (forked mesh workers).
    explicit Communicator(Transport& transport)
        : transport_(&transport), rank_(transport.rank()) {}

    [[nodiscard]] int rank() const { return rank_; }
    [[nodiscard]] int size() const { return transport_->size(); }
    [[nodiscard]] Transport& transport() const { return *transport_; }

    /// Nonblocking send: the payload is captured before returning (buffered
    /// semantics), so the returned request is already complete; it is
    /// provided so call sites read like their MPI counterparts. `tag` must
    /// be below kSystemTagBase.
    Request isend(int dest, int tag, std::span<const double> data);
    /// Nonblocking receive into `out`; completes when a matching message has
    /// been copied in. `out` must stay valid and untouched until wait().
    [[nodiscard]] Request irecv(int src, int tag, std::span<double> out);

    /// Blocking convenience wrappers.
    void send(int dest, int tag, std::span<const double> data);
    void recv(int src, int tag, std::span<double> out);
    /// recv with a deadline: throws TimeoutError if no matching message
    /// arrives within `timeout_seconds`. The posted receive stays pending
    /// (as in MPI, a receive cannot be cancelled for free), so a later
    /// matching message will still land in `out` — keep it alive.
    void recv(int src, int tag, std::span<double> out, double timeout_seconds);

    /// Synchronise all ranks.
    void barrier();

    /// Sum / max of one value per rank, returned on every rank, reduced in
    /// rank order (bitwise-reproducible). `timeout_seconds > 0` arms a
    /// deadline: CollectiveTimeoutError on expiry. Under an active chaos
    /// drop scenario the collective retransmits on the plan's receive
    /// timeout, like HaloExchange::wait_dim — a user deadline still wins.
    [[nodiscard]] double allreduce_sum(double value,
                                       double timeout_seconds = 0.0);
    [[nodiscard]] double allreduce_max(double value,
                                       double timeout_seconds = 0.0);
    /// Broadcast `value` from `root` to all ranks; same deadline contract.
    [[nodiscard]] double broadcast(double value, int root,
                                   double timeout_seconds = 0.0);

    /// Release chaos-dropped sends job-wide (every process's session). The
    /// timeout-retry loops (HaloExchange::wait_dim, the collectives) call
    /// this; prefer it over chaos::request_retransmits(), which only
    /// reaches the calling process.
    void request_retransmits() { transport_->request_retransmits(); }

  private:
    enum class Collective { Sum, Max, Bcast };

    double rendezvous(const char* op, Collective kind, double value, int root,
                      double timeout_seconds);
    /// Wait on `req` under the collective deadline discipline: slice waits
    /// by the chaos receive timeout (requesting retransmits between
    /// slices), and convert expiry of `deadline` (absolute monotonic
    /// seconds, +inf = none) into CollectiveTimeoutError.
    void await(Request& req, const char* op, const std::string& phase,
               double deadline);

    /// Set by the in-process ctor; chaos-held sends share it (isend).
    std::shared_ptr<Transport> owned_;
    Transport* transport_;
    int rank_;
};

/// Launch `nranks` rank threads running `rank_main` and join them. The first
/// exception thrown by any rank is rethrown here after all ranks finish or
/// unwind. This is the `mpirun` of the in-process substrate; the forked
/// counterparts are run_process_ranks and run_tcp_ranks
/// (msg/transport/process.hpp).
void run_ranks(int nranks,
               const std::function<void(Communicator&)>& rank_main);

}  // namespace advect::msg
