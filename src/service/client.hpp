#pragma once
/// \file client.hpp
/// The advectd client (`advectctl submit/status/drain`, the game-day
/// runner, the e2e tests). One connection per Client; every read is
/// bounded by the configured timeout and surfaces as a typed TimeoutError
/// — a wedged daemon can fail a test, never hang it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/field.hpp"
#include "service/admission.hpp"
#include "service/job.hpp"
#include "service/protocol.hpp"

namespace advect::service {

/// The daemon refused a submission; carries the typed reason plus the
/// daemon's detail message (for BadSpec, the parser's named-key error).
class RejectedError : public std::runtime_error {
  public:
    RejectedError(RejectReason reason, const std::string& detail)
        : std::runtime_error(std::string("service: rejected (") +
                             reject_reason_name(reason) + "): " + detail),
          reason_(reason),
          detail_(detail) {}
    [[nodiscard]] RejectReason reason() const { return reason_; }
    [[nodiscard]] const std::string& detail() const { return detail_; }

  private:
    RejectReason reason_;
    std::string detail_;
};

/// One finished job as reported by the daemon.
struct CompletedJob {
    std::uint64_t id = 0;
    std::string tenant;
    bool ok = false;
    std::string error;
    double wall_s = 0.0;
    double l2 = 0.0;
    double linf = 0.0;
    std::size_t faults = 0;
    double absorbed = -1.0;
    double queue_wait_s = 0.0;
    double turnaround_s = 0.0;
    std::optional<core::Field3> state;  ///< when the spec asked for it
};

class Client {
  public:
    /// Connects immediately; throws std::system_error when the daemon is
    /// not listening. `timeout_s` bounds every subsequent protocol read.
    explicit Client(const std::string& socket_path, double timeout_s = 60.0);
    ~Client();
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;
    Client(Client&& other) noexcept
        : fd_(other.fd_),
          timeout_s_(other.timeout_s_),
          finished_(std::move(other.finished_)) {
        other.fd_ = -1;
    }
    Client& operator=(Client&&) = delete;

    /// Submit one job; returns its daemon-assigned id. Throws
    /// RejectedError on refusal, TimeoutError when the daemon does not
    /// answer in time. Equivalent to send_submit then read_submit_ack.
    std::uint64_t submit(const JobSpec& spec);

    /// The two halves of submit, for pipelined submission: write one submit
    /// frame without waiting, and read the ack of the oldest submission not
    /// yet acknowledged (the daemon answers each connection's submissions
    /// in order). read_submit_ack throws as submit does.
    void send_submit(const JobSpec& spec);
    std::uint64_t read_submit_ack();

    /// Read completion events until `id` finishes (events for other jobs
    /// on this connection are buffered and returned by later waits).
    CompletedJob wait(std::uint64_t id);

    /// Wait for `count` completions on this connection, any order.
    std::vector<CompletedJob> wait_all(std::size_t count);

    /// The daemon's current SLO report (JSON text).
    std::string status();

    /// Request a drain and block until the daemon finishes all queued work
    /// and replies with the final SLO report (JSON text). The daemon exits
    /// afterwards.
    std::string drain();

    /// Completion events read while waiting for something else, not yet
    /// claimed by a wait. Tests use this to assert the daemon never routed
    /// another connection's completion here.
    [[nodiscard]] std::size_t buffered() const { return finished_.size(); }

  private:
    msg::wire::Frame read_frame(const std::string& what);
    std::optional<CompletedJob> take_finished(std::uint64_t id);
    /// Parse a kFrameEvent payload and, when the event announces a
    /// following state, read that frame too — verifying it really is a
    /// kFrameState for this job id. Every receive path goes through here,
    /// so an interleaved foreign frame surfaces as a clear protocol error
    /// rather than an unmarshalling failure.
    CompletedJob read_completion(const msg::wire::Frame& event_frame);

    int fd_ = -1;
    double timeout_s_;
    std::vector<CompletedJob> finished_;  ///< events read while waiting
};

}  // namespace advect::service
