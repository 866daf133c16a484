#include "impl/exchange.hpp"

#include "chaos/inject.hpp"
#include "omp/parallel_for.hpp"
#include "trace/span.hpp"

namespace advect::impl {

namespace {

namespace omp = advect::omp;

/// Message tag for (dim, travel direction): low-travelling messages carry a
/// rank's low plane toward its low neighbour.
int tag_of(int dim, int travel_low) { return dim * 2 + (travel_low ? 0 : 1); }

/// Static span names so ScopedSpan never allocates on the hot path.
constexpr const char* kStartDim[3] = {"start_x", "start_y", "start_z"};
constexpr const char* kFinishDim[3] = {"finish_x", "finish_y", "finish_z"};

/// Run `copy(lo, hi)` over the x-rows of `region`: all of them on the
/// calling thread without a team of several threads, else a static row
/// chunk per team thread.
template <class Copy>
void over_rows(const core::Range3& region, omp::ThreadTeam* team, Copy copy) {
    const auto e = region.extents();
    const std::int64_t rows = static_cast<std::int64_t>(e.ny) * e.nz;
    if (team == nullptr || team->size() == 1)
        copy(0, rows);
    else
        omp::parallel_for(*team, 0, rows, omp::Schedule::Static, copy);
}

}  // namespace

void pack_parallel(const core::Field3& f, const core::Range3& region,
                   std::span<double> out, omp::ThreadTeam* team) {
    over_rows(region, team, [&](std::int64_t lo, std::int64_t hi) {
        core::pack(f, region, out, lo, hi);
    });
}

void unpack_parallel(core::Field3& f, const core::Range3& region,
                     std::span<const double> in, omp::ThreadTeam* team) {
    over_rows(region, team, [&](std::int64_t lo, std::int64_t hi) {
        core::unpack(f, region, in, lo, hi);
    });
}

HaloExchange::HaloExchange(const core::Decomp3& decomp, int rank, int depth)
    : plan_(core::HaloPlan::make(decomp.local_extents(rank), depth)) {
    for (int d = 0; d < 3; ++d) {
        const auto du = static_cast<std::size_t>(d);
        nbr_[du][0] = decomp.neighbor(rank, d, -1);
        nbr_[du][1] = decomp.neighbor(rank, d, +1);
        sbuf_[du][0].resize(plan_.dims[du].send_low.volume());
        sbuf_[du][1].resize(plan_.dims[du].send_high.volume());
        rbuf_[du][0].resize(plan_.dims[du].recv_low.volume());
        rbuf_[du][1].resize(plan_.dims[du].recv_high.volume());
    }
}

void HaloExchange::post_recvs(msg::Communicator& comm) {
    trace::ScopedSpan span("post_recvs", "impl", trace::Lane::Host);
    for (int d = 0; d < 3; ++d) {
        const auto du = static_cast<std::size_t>(d);
        // Low halo is filled by the low neighbour's high-travelling message;
        // high halo by the high neighbour's low-travelling message.
        rreq_[du][0] = comm.irecv(nbr_[du][0], tag_of(d, /*travel_low=*/0),
                                  rbuf_[du][0]);
        rreq_[du][1] = comm.irecv(nbr_[du][1], tag_of(d, /*travel_low=*/1),
                                  rbuf_[du][1]);
    }
}

void HaloExchange::start_dim(msg::Communicator& comm, const core::Field3& f,
                             int dim, omp::ThreadTeam* team) {
    trace::ScopedSpan span(kStartDim[dim], "impl", trace::Lane::Host);
    const auto du = static_cast<std::size_t>(dim);
    const auto& e = plan_.dims[du];
    pack_parallel(f, e.send_low, sbuf_[du][0], team);
    pack_parallel(f, e.send_high, sbuf_[du][1], team);
    // Chaos msg rules key on the channel site "send_<dim>"; the scope also
    // numbers the two face messages as occurrences 0 and 1.
    chaos::ScopedMsgSite msg_site(dim);
    comm.isend(nbr_[du][0], tag_of(dim, /*travel_low=*/1), sbuf_[du][0]);
    comm.isend(nbr_[du][1], tag_of(dim, /*travel_low=*/0), sbuf_[du][1]);
}

void HaloExchange::finish_dim(msg::Communicator& comm, core::Field3& f,
                              int dim, omp::ThreadTeam* team) {
    trace::ScopedSpan span(kFinishDim[dim], "impl", trace::Lane::Host);
    wait_dim(comm, dim);
    unpack_dim(f, dim, team);
}

void HaloExchange::wait_dim(msg::Communicator& comm, int dim) {
    const auto du = static_cast<std::size_t>(dim);
    const double timeout = chaos::recv_timeout_seconds();
    if (timeout <= 0.0) {
        rreq_[du][0].wait();
        rreq_[du][1].wait();
        return;
    }
    // A chaos drop scenario is active: wait with the plan's deadline and on
    // expiry ask the transport to release held sends job-wide (the
    // retransmission the paper's runtime would get from its transport),
    // then wait again. The slice is floored and grows exponentially
    // (msg/comm.hpp) so a zero/tiny plan timeout cannot become a busy
    // retransmit storm; the bound only guards against a mis-specified
    // scenario.
    constexpr int kMaxRetransmitAttempts = 1000;
    double slice = msg::initial_retry_slice(timeout);
    for (int attempt = 0;; ++attempt) {
        try {
            rreq_[du][0].wait(slice);
            rreq_[du][1].wait(slice);
            return;
        } catch (const msg::TimeoutError&) {
            if (attempt >= kMaxRetransmitAttempts) throw;
            comm.request_retransmits();
            slice = msg::next_retry_slice(slice, timeout);
        }
    }
}

void HaloExchange::unpack_dim(core::Field3& f, int dim,
                              omp::ThreadTeam* team) {
    const auto du = static_cast<std::size_t>(dim);
    const auto& e = plan_.dims[du];
    unpack_parallel(f, e.recv_low, rbuf_[du][0], team);
    unpack_parallel(f, e.recv_high, rbuf_[du][1], team);
}

void HaloExchange::exchange_all(msg::Communicator& comm, core::Field3& f,
                                omp::ThreadTeam* team) {
    trace::ScopedSpan span("exchange_all", "impl", trace::Lane::Host);
    post_recvs(comm);
    for (int d = 0; d < 3; ++d) {
        start_dim(comm, f, d, team);
        finish_dim(comm, f, d, team);
    }
}

}  // namespace advect::impl
