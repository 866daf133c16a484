#include "msg/request.hpp"

#include <algorithm>
#include <chrono>

#include "trace/span.hpp"

namespace advect::msg {

namespace {

/// One pump slice while a pumped wait blocks: short enough that a
/// completion by another thread (a chaos self-send) is noticed promptly,
/// long enough that the poll() syscall dominates over the loop around it.
constexpr double kPumpSliceSeconds = 0.01;

double monotonic_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

namespace detail {

void RequestState::complete(std::size_t delivered) {
    {
        std::lock_guard lock(mu);
        done = true;
        count = delivered;
    }
    cv.notify_all();
    // The recv span covers the request's open lifetime — post to delivery —
    // which is exactly the window the NIC would be occupied for.
    if (trace_t0 >= 0.0 && trace::enabled())
        trace::record("recv", "msg", trace::Lane::Nic, trace_t0, trace::now(),
                      trace_rank);
}

void RequestState::fail(int rank, std::string reason) {
    {
        std::lock_guard lock(mu);
        if (done) return;  // a real delivery beat the failure; keep it
        done = true;
        failed = true;
        fail_rank = rank;
        fail_reason = std::move(reason);
    }
    cv.notify_all();
}

}  // namespace detail

namespace {

/// Throw for a failed request. Must be called with state.mu held: copies the
/// failure fields into a fresh TransportError so the thrown object is owned
/// entirely by the waiting thread, never shared with the thread that failed
/// the request.
[[noreturn]] void throw_failure(const detail::RequestState& state) {
    throw TransportError(state.fail_rank, state.fail_reason);
}

}  // namespace

void Request::wait() {
    if (!state_) return;
    trace::ScopedSpan span("wait", "msg", trace::Lane::Host);
    ProgressPump* pump = nullptr;
    {
        std::unique_lock lock(state_->mu);
        pump = state_->pump;
        if (pump == nullptr) {
            state_->cv.wait(lock, [this] { return state_->done; });
            if (state_->failed) throw_failure(*state_);
            return;
        }
        if (state_->done) {
            if (state_->failed) throw_failure(*state_);
            return;
        }
    }
    // The waiting rank reads its own sockets: alternate engine passes with
    // completion checks.
    for (;;) {
        pump->pump(kPumpSliceSeconds);
        std::lock_guard lock(state_->mu);
        if (state_->done) {
            if (state_->failed) throw_failure(*state_);
            return;
        }
    }
}

void Request::wait(double timeout_seconds) {
    if (!state_) return;
    trace::ScopedSpan span("wait", "msg", trace::Lane::Host);
    ProgressPump* pump = nullptr;
    {
        std::unique_lock lock(state_->mu);
        pump = state_->pump;
        if (pump == nullptr) {
            if (!state_->cv.wait_for(
                    lock, std::chrono::duration<double>(timeout_seconds),
                    [this] { return state_->done; }))
                throw TimeoutError(0);
            if (state_->failed) throw_failure(*state_);
            return;
        }
        if (state_->done) {
            if (state_->failed) throw_failure(*state_);
            return;
        }
    }
    const double deadline = monotonic_seconds() + timeout_seconds;
    for (;;) {
        const double remaining = deadline - monotonic_seconds();
        if (remaining <= 0.0) throw TimeoutError(0);
        pump->pump(std::min(remaining, kPumpSliceSeconds));
        std::lock_guard lock(state_->mu);
        if (state_->done) {
            if (state_->failed) throw_failure(*state_);
            return;
        }
    }
}

bool Request::test() const {
    if (!state_) return true;
    ProgressPump* pump = nullptr;
    {
        std::lock_guard lock(state_->mu);
        if (state_->done) {
            if (state_->failed) throw_failure(*state_);
            return true;
        }
        pump = state_->pump;
    }
    if (pump == nullptr) return false;
    pump->pump(0.0);  // nonblocking engine pass, then recheck
    std::lock_guard lock(state_->mu);
    if (state_->done && state_->failed) throw_failure(*state_);
    return state_->done;
}

std::size_t Request::count() const {
    if (!state_) return 0;
    std::lock_guard lock(state_->mu);
    return state_->count;
}

void Request::wait_all(std::span<Request> reqs) {
    trace::ScopedSpan span("waitall", "msg", trace::Lane::Host);
    for (auto& r : reqs) r.wait();
}

void Request::wait_all(std::span<Request> reqs, double timeout_seconds) {
    trace::ScopedSpan span("waitall", "msg", trace::Lane::Host);
    const double deadline = monotonic_seconds() + timeout_seconds;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        auto& r = reqs[i];
        if (!r.state_) continue;
        try {
            r.wait(std::max(0.0, deadline - monotonic_seconds()));
        } catch (const TimeoutError&) {
            throw TimeoutError(i);
        }
    }
}

}  // namespace advect::msg
