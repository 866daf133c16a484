#include "msg/comm.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/inject.hpp"
#include "msg/transport/inproc.hpp"
#include "trace/span.hpp"

namespace advect::msg {

namespace {

/// Reserved tags for the collective rendezvous (see kSystemTagBase): every
/// reduction gathers through rank 0 and releases the result; broadcast
/// releases from its root; barrier is a zero-payload reduction. One
/// gather/release tag pair suffices because all ranks execute the same
/// collective sequence and each (src, dst, tag) channel is FIFO.
constexpr int kTagGather = kSystemTagBase + 0;
constexpr int kTagRelease = kSystemTagBase + 1;

/// Bound on retransmit attempts per wait, mirroring HaloExchange::wait_dim:
/// only guards against a mis-specified chaos scenario.
constexpr int kMaxRetransmitAttempts = 1000;

double monotonic_now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

World::World(int nranks)
    : nranks_(nranks), mailboxes_(static_cast<std::size_t>(nranks)) {
    if (nranks < 1) throw std::invalid_argument("World: nranks must be >= 1");
}

Communicator::Communicator(std::shared_ptr<World> world, int rank)
    : owned_(std::make_shared<InProcessTransport>(std::move(world), rank)),
      transport_(owned_.get()),
      rank_(rank) {}

Request Communicator::isend(int dest, int tag, std::span<const double> data) {
    assert(dest >= 0 && dest < size());
    trace::ScopedSpan span("isend", "msg", trace::Lane::Nic);
    // Chaos injection point: the active session may take over delivery
    // (delay, drop-until-retransmit, or FIFO-queue behind an earlier
    // perturbed send on this channel). The payload is copied into the
    // closure, preserving buffered-send semantics either way. A held send
    // can fire after this rank's thread has exited (a dropped message the
    // receiver asks to have retransmitted), so the closure shares ownership
    // of an in-process transport and, through it, of the World.
    if (chaos::active() &&
        chaos::on_send(rank_, dest,
                       [keep = owned_, t = transport_, dest, tag,
                        payload = std::vector<double>(data.begin(),
                                                      data.end())] {
                           t->deliver(dest, tag, payload);
                       }))
        return Request{};
    transport_->deliver(dest, tag, data);
    return Request{};  // buffered send: complete on return
}

Request Communicator::irecv(int src, int tag, std::span<double> out) {
    assert(src == kAnySource || (src >= 0 && src < size()));
    return transport_->mailbox().post_receive(src, tag, out);
}

void Communicator::send(int dest, int tag, std::span<const double> data) {
    isend(dest, tag, data).wait();
}

void Communicator::recv(int src, int tag, std::span<double> out) {
    irecv(src, tag, out).wait();
}

void Communicator::recv(int src, int tag, std::span<double> out,
                        double timeout_seconds) {
    irecv(src, tag, out).wait(timeout_seconds);
}

void Communicator::await(Request& req, const char* op,
                         const std::string& phase, double deadline) {
    const double chaos_timeout = chaos::recv_timeout_seconds();
    if (!std::isfinite(deadline) && chaos_timeout <= 0.0) {
        req.wait();
        return;
    }
    int attempts = 0;
    // Floored and exponentially growing slice (comm.hpp): one retransmit
    // request per expired slice, so the growth is the backoff.
    double slice_s = initial_retry_slice(chaos_timeout);
    for (;;) {
        double budget = std::numeric_limits<double>::infinity();
        if (std::isfinite(deadline)) {
            budget = deadline - monotonic_now();
            if (budget <= 0.0)
                throw CollectiveTimeoutError(op, phase, rank_);
        }
        const double slice =
            chaos_timeout > 0.0 ? std::min(budget, slice_s) : budget;
        try {
            req.wait(slice);
            return;
        } catch (const TimeoutError&) {
            if (std::isfinite(deadline) && monotonic_now() >= deadline)
                throw CollectiveTimeoutError(op, phase, rank_);
            // A chaos drop scenario is active (or the slice undershot the
            // deadline): release held sends job-wide and wait again.
            if (chaos_timeout > 0.0) {
                if (++attempts > kMaxRetransmitAttempts) throw;
                request_retransmits();
                slice_s = next_retry_slice(slice_s, chaos_timeout);
            }
        }
    }
}

double Communicator::rendezvous(const char* op, Collective kind, double value,
                                int root, double timeout_seconds) {
    // One logical span per collective; the point-to-point machinery below
    // runs muted so call sites keep the trace shape they always had.
    trace::ScopedSpan span(op, "msg", trace::Lane::Host);
    trace::ScopedMute mute;
    // Fault rules target collective traffic by the collective's name.
    chaos::ScopedMsgSite site(op);

    const double deadline =
        timeout_seconds > 0.0 ? monotonic_now() + timeout_seconds
                              : std::numeric_limits<double>::infinity();
    const int n = size();

    if (kind == Collective::Bcast) {
        if (n == 1 || rank_ == root) {
            for (int r = 0; r < n; ++r)
                if (r != root) isend(r, kTagRelease, {&value, 1});
            return value;
        }
        double got = 0.0;
        Request req = irecv(root, kTagRelease, {&got, 1});
        await(req, op, "release", deadline);
        return got;
    }

    // Sum/Max gather through rank 0, which reduces in rank order — the
    // bitwise-reproducible order verification depends on — and releases the
    // result to every rank.
    if (n == 1) return value;
    if (rank_ == 0) {
        std::vector<double> vals(static_cast<std::size_t>(n), 0.0);
        vals[0] = value;
        std::vector<Request> reqs;
        reqs.reserve(static_cast<std::size_t>(n) - 1);
        for (int r = 1; r < n; ++r)
            reqs.push_back(
                irecv(r, kTagGather, {&vals[static_cast<std::size_t>(r)], 1}));
        for (int r = 1; r < n; ++r)
            await(reqs[static_cast<std::size_t>(r - 1)], op,
                  "gather from rank " + std::to_string(r), deadline);
        double result;
        if (kind == Collective::Sum) {
            result = 0.0;
            for (double v : vals) result += v;
        } else {
            result = vals[0];
            for (double v : vals) result = std::max(result, v);
        }
        for (int r = 1; r < n; ++r) isend(r, kTagRelease, {&result, 1});
        return result;
    }
    isend(0, kTagGather, {&value, 1});
    double result = 0.0;
    Request req = irecv(0, kTagRelease, {&result, 1});
    await(req, op, "release", deadline);
    return result;
}

void Communicator::barrier() {
    // A zero-valued, untimed reduction: every rank blocks until all have
    // arrived at rank 0 and been released. Rides the same chaos-visible
    // path as the other collectives, so drop scenarios perturb it and the
    // retransmit-on-timeout loop recovers it, on every backend alike.
    trace::ScopedSpan span("barrier", "msg", trace::Lane::Host);
    trace::ScopedMute mute;
    chaos::ScopedMsgSite site("barrier");
    const double no_deadline = std::numeric_limits<double>::infinity();
    const int n = size();
    if (n == 1) return;
    double token = 0.0;
    if (rank_ == 0) {
        std::vector<double> slots(static_cast<std::size_t>(n), 0.0);
        std::vector<Request> reqs;
        reqs.reserve(static_cast<std::size_t>(n) - 1);
        for (int r = 1; r < n; ++r)
            reqs.push_back(irecv(r, kTagGather,
                                 {&slots[static_cast<std::size_t>(r)], 1}));
        for (int r = 1; r < n; ++r)
            await(reqs[static_cast<std::size_t>(r - 1)], "barrier",
                  "gather from rank " + std::to_string(r), no_deadline);
        for (int r = 1; r < n; ++r) isend(r, kTagRelease, {&token, 1});
        return;
    }
    isend(0, kTagGather, {&token, 1});
    Request req = irecv(0, kTagRelease, {&token, 1});
    await(req, "barrier", "release", no_deadline);
}

double Communicator::allreduce_sum(double value, double timeout_seconds) {
    return rendezvous("allreduce_sum", Collective::Sum, value, 0,
                      timeout_seconds);
}

double Communicator::allreduce_max(double value, double timeout_seconds) {
    return rendezvous("allreduce_max", Collective::Max, value, 0,
                      timeout_seconds);
}

double Communicator::broadcast(double value, int root,
                               double timeout_seconds) {
    assert(root >= 0 && root < size());
    return rendezvous("broadcast", Collective::Bcast, value, root,
                      timeout_seconds);
}

void run_ranks(int nranks,
               const std::function<void(Communicator&)>& rank_main) {
    const auto world = std::make_shared<World>(nranks);
    std::exception_ptr first_error;
    std::mutex error_mu;
    {
        std::vector<std::jthread> threads;
        threads.reserve(static_cast<std::size_t>(nranks));
        for (int r = 0; r < nranks; ++r) {
            threads.emplace_back([&world, &rank_main, &first_error, &error_mu,
                                  r] {
                trace::set_current_rank(r);
                Communicator comm(world, r);
                try {
                    rank_main(comm);
                } catch (...) {
                    // A rank that throws while peers block in a collective is
                    // a program error (as in MPI); well-formed tests throw on
                    // all ranks or none.
                    std::lock_guard lock(error_mu);
                    if (!first_error) first_error = std::current_exception();
                }
            });
        }
    }
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace advect::msg
