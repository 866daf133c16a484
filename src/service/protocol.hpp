#pragma once
/// \file protocol.hpp
/// The advectd wire protocol (docs/SERVICE.md §wire protocol), layered on
/// the transport's frame format (msg/transport/wire.hpp: u8 type | u32
/// length | payload, little-endian). Service frames use types 16+ so they
/// can never collide with the rank-mesh frames (1..4). Control payloads are
/// JSON text (the job spec, rejections, events, the SLO report); the
/// final-state payload is binary (the launcher's Field3 marshalling), since
/// bitwise identity is its whole point.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/field.hpp"
#include "msg/transport/wire.hpp"

namespace advect::service {

/// Service frame types. Client -> daemon: Submit, Status, Drain.
/// Daemon -> client: SubmitOk, Reject, Event, State, Report.
enum ServiceFrame : std::uint8_t {
    kFrameSubmit = 16,    ///< payload: job spec JSON (service/job.hpp)
    kFrameSubmitOk = 17,  ///< payload: {"id": N, "cost_s": X}
    kFrameReject = 18,    ///< payload: {"reason": ..., "detail": ...}
    kFrameEvent = 19,     ///< payload: one per-job completion record (JSON)
    kFrameState = 20,     ///< payload: u64 job id | marshalled Field3
    kFrameStatus = 21,    ///< payload: empty; daemon replies kFrameReport
    kFrameReport = 22,    ///< payload: SLO report JSON (service/slo.hpp)
    kFrameDrain = 23,     ///< payload: empty; reply kFrameReport when done
};

/// A blocking protocol read that did not complete in time. The client's
/// only failure mode for a wedged daemon: every wait is bounded, so the
/// game-day gate's "zero hangs (typed timeouts only)" is checkable.
class TimeoutError : public std::runtime_error {
  public:
    explicit TimeoutError(const std::string& what)
        : std::runtime_error("service: timeout: " + what) {}
};

/// Append a Field3 to a frame payload: extents, halo width, raw (padded)
/// doubles — the launcher's own marshalling shape.
void marshal_state(msg::wire::ByteWriter& w, const core::Field3& state);
/// Inverse of marshal_state; throws std::runtime_error on a size mismatch.
[[nodiscard]] core::Field3 unmarshal_state(msg::wire::ByteReader& r);

/// Create, bind and listen on a Unix-domain stream socket at `path`,
/// replacing any stale socket file. Throws std::system_error on failure.
[[nodiscard]] int listen_unix(const std::string& path, int backlog = 64);

/// Connect to the daemon's socket. Throws std::system_error on failure.
[[nodiscard]] int connect_unix(const std::string& path);

/// read_frame with a deadline: waits up to `timeout_s` for the frame to
/// start arriving, then reads it. Returns false on clean EOF; throws
/// TimeoutError when nothing arrives in time, std::system_error on I/O
/// failure.
[[nodiscard]] bool read_frame_timeout(int fd, msg::wire::Frame& out,
                                      double timeout_s,
                                      const std::string& what);

/// Convenience: write a frame whose payload is a UTF-8 string.
void write_text_frame(int fd, std::uint8_t type, const std::string& text);

}  // namespace advect::service
