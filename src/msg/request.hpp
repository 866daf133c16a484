#pragma once
/// \file request.hpp
/// Completion handles with MPI nonblocking semantics: an operation returns a
/// Request immediately; the data involved may not be touched until wait()
/// (or a successful test()) — exactly the contract the paper's nonblocking
/// overlap implementation (§IV-C) is written against.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>

namespace advect::msg {

/// A deadline expired before the awaited operation completed. `index()` is
/// the position of the stalled request within a wait_all span (0 for a
/// single wait/recv). The request itself is still pending and may be waited
/// on again — chaos drop scenarios catch this, trigger retransmission, and
/// retry (impl::HaloExchange::wait_dim).
class TimeoutError : public std::runtime_error {
  public:
    explicit TimeoutError(std::size_t index)
        : std::runtime_error("msg: wait deadline expired (request " +
                             std::to_string(index) + " still pending)"),
          index_(index) {}

    [[nodiscard]] std::size_t index() const { return index_; }

  protected:
    TimeoutError(const std::string& what, std::size_t index)
        : std::runtime_error(what), index_(index) {}

  private:
    std::size_t index_;
};

/// A collective's deadline expired: names the collective, the internal
/// phase that stalled ("gather from rank 2", "release") and the rank that
/// gave up. Thrown by the timed allreduce_sum/allreduce_max/broadcast
/// overloads; the collective's internal receives stay pending, so under a
/// chaos drop scenario a caller may request retransmission and retry,
/// exactly like point-to-point.
class CollectiveTimeoutError : public TimeoutError {
  public:
    CollectiveTimeoutError(std::string op, std::string phase, int rank)
        : TimeoutError("msg: " + op + " deadline expired on rank " +
                           std::to_string(rank) + " (stalled in " + phase +
                           ")",
                       0),
          op_(std::move(op)),
          phase_(std::move(phase)),
          rank_(rank) {}

    /// The collective that stalled ("allreduce_sum", ...).
    [[nodiscard]] const std::string& op() const { return op_; }
    /// The internal phase that stalled ("gather from rank N", "release").
    [[nodiscard]] const std::string& phase() const { return phase_; }
    /// The rank whose deadline expired.
    [[nodiscard]] int rank() const { return rank_; }

  private:
    std::string op_;
    std::string phase_;
    int rank_;
};

/// The link to a peer of this rank failed while the operation still
/// depended on it: the peer's socket closed (clean EOF or reset), or the
/// peer broke the wire protocol (an oversized length header, an unknown
/// frame type, a wrong source or sequence number), with a receive from it
/// pending or posted afterwards. `rank()` names the peer. Unlike
/// TimeoutError the request is dead, not pending — waiting again rethrows.
/// A departure's message contains the word "disconnected" and a protocol
/// violation's never does, so launchers that only see flattened strings
/// (run_process_ranks) rank a violation as a root cause, above the cascade
/// of disconnect errors a dying peer provokes.
class TransportError : public std::runtime_error {
  public:
    TransportError(int rank, const std::string& what)
        : std::runtime_error(what), rank_(rank) {}

    /// The peer rank whose link failed.
    [[nodiscard]] int rank() const { return rank_; }

  private:
    int rank_;
};

/// A transport's "advance my sockets" hook. The mesh transport's bytes only
/// reach the mailbox when a rank-side call pumps: in either progress mode
/// the waiting rank reads its own sockets (mesh.hpp). Mailbox stamps the
/// transport's pump into every posted receive, and Request's wait paths
/// alternate pump slices with completion checks instead of sleeping on the
/// condition variable.
class ProgressPump {
  public:
    virtual ~ProgressPump() = default;
    /// One engine pass: flush queued outbound bytes, read and deliver
    /// inbound frames. Blocks at most `timeout_seconds` waiting for socket
    /// readiness (0 = nonblocking pass). Thread-safe; concurrent pumps
    /// serialize internally.
    virtual void pump(double timeout_seconds) = 0;
};

namespace detail {

/// Shared completion state between the initiating rank and whichever rank's
/// call completes the operation.
struct RequestState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::size_t count = 0;  ///< doubles delivered (receives)
    /// Set instead of a payload when the operation can never complete (peer
    /// disconnect): done becomes true and each wait path throws a fresh
    /// TransportError built from these fields. Stored as plain data — not a
    /// shared exception object — so the failing thread (another waiter's
    /// pump, the progress engine) and the waiting thread never share an
    /// exception whose libstdc++ refcounts are invisible to TSan.
    bool failed = false;
    int fail_rank = -1;
    std::string fail_reason;
    /// Transport hook stamped by Mailbox::post_receive; null in process,
    /// where the sending rank's thread completes requests.
    ProgressPump* pump = nullptr;

    /// Trace context stamped at post time (receives only): the span covering
    /// the request's open lifetime is recorded by complete(). Negative t0
    /// means tracing was off when the request was posted.
    double trace_t0 = -1.0;
    int trace_rank = -1;

    void complete(std::size_t delivered);
    /// Complete with a peer-disconnect failure; a no-op once done (a real
    /// delivery that beat the failure is kept).
    void fail(int rank, std::string reason);
};

}  // namespace detail

/// Handle for a nonblocking send or receive. Default-constructed requests
/// are "null" and behave as already complete (like MPI_REQUEST_NULL).
class Request {
  public:
    Request() = default;
    explicit Request(std::shared_ptr<detail::RequestState> state)
        : state_(std::move(state)) {}

    /// Block until the operation completes; rethrows the completion error
    /// (TransportError) if the operation failed.
    void wait();
    /// Block until the operation completes or `timeout_seconds` elapse;
    /// throws TimeoutError (index 0) on expiry, leaving the request pending
    /// and re-waitable. Rethrows the completion error on failure.
    void wait(double timeout_seconds);
    /// Nonblocking completion poll (one nonblocking pump pass when the
    /// transport has a pump).
    /// Throws the completion error if the operation failed.
    [[nodiscard]] bool test() const;
    /// Number of doubles delivered; valid after completion of a receive.
    [[nodiscard]] std::size_t count() const;

    /// Wait on every request in the span (MPI_Waitall).
    static void wait_all(std::span<Request> reqs);
    /// wait_all with a shared deadline `timeout_seconds` from now; throws
    /// TimeoutError naming the first request still pending at expiry.
    /// Requests completed before the throw stay completed.
    static void wait_all(std::span<Request> reqs, double timeout_seconds);

  private:
    std::shared_ptr<detail::RequestState> state_;
};

}  // namespace advect::msg
