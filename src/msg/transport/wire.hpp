#pragma once
/// \file wire.hpp
/// Length-prefixed wire framing for the mesh transport and the launcher's
/// control channel (docs/TRANSPORT.md §wire format). A frame is
///
///     u8 type | u32 length | length bytes of payload
///
/// with fixed-width little-endian integers (the framing is byte-order
/// defined so the Unix-domain mesh is TCP-ready; both ends of a link must
/// be little-endian hosts, which every supported target is). Data frames
/// carry `u32 src | i32 tag | u64 seq | doubles`; `seq` numbers each
/// (src, dst) channel so the receiver can verify stream transport preserved
/// the sender's write order — the property MPI non-overtaking and the chaos
/// ticketed-FIFO semantics are built on.
///
/// ByteWriter/ByteReader are the (same-endianness) serializers used for
/// control payloads: the launcher's result marshalling (impl/launch), the
/// TCP rendezvous and advectd's frames. The mesh transport writes and
/// parses DATA frames in place (mesh.cpp), so a payload is copied at most
/// once per side.

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace advect::msg::wire {

/// Frame types. Data/retransmit flow over the rank mesh; result/error flow
/// over a worker's control channel to the launcher; hello/hosts carry the
/// TCP rendezvous (docs/TRANSPORT.md §stage 2).
enum FrameType : std::uint8_t {
    kFrameData = 1,        ///< one point-to-point message
    kFrameRetransmit = 2,  ///< "release your chaos-dropped sends"
    kFrameResult = 3,      ///< worker finished; payload = marshalled result
    kFrameError = 4,       ///< worker threw; payload = exception message
    kFrameHello = 5,       ///< rendezvous id: u32 rank (mesh) or port (ctrl)
    kFrameHosts = 6,       ///< rendezvous host list: u32 n, then n str
};

/// Append-only little-endian serializer.
class ByteWriter {
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v) { append(&v, sizeof v); }
    void u64(std::uint64_t v) { append(&v, sizeof v); }
    void i32(std::int32_t v) { append(&v, sizeof v); }
    void f64(double v) { append(&v, sizeof v); }
    void str(std::string_view s) {
        u32(static_cast<std::uint32_t>(s.size()));
        append(s.data(), s.size());
    }
    void doubles(std::span<const double> v) {
        u32(static_cast<std::uint32_t>(v.size()));
        append(v.data(), v.size() * sizeof(double));
    }
    void raw(std::span<const std::uint8_t> v) { append(v.data(), v.size()); }

    [[nodiscard]] std::span<const std::uint8_t> bytes() const { return buf_; }
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    void append(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), b, b + n);
    }
    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a ByteWriter's output.
class ByteReader {
  public:
    explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

    [[nodiscard]] std::uint8_t u8() {
        std::uint8_t v;
        take(&v, sizeof v);
        return v;
    }
    [[nodiscard]] std::uint32_t u32() {
        std::uint32_t v;
        take(&v, sizeof v);
        return v;
    }
    [[nodiscard]] std::uint64_t u64() {
        std::uint64_t v;
        take(&v, sizeof v);
        return v;
    }
    [[nodiscard]] std::int32_t i32() {
        std::int32_t v;
        take(&v, sizeof v);
        return v;
    }
    [[nodiscard]] double f64() {
        double v;
        take(&v, sizeof v);
        return v;
    }
    [[nodiscard]] std::string str() {
        const std::uint32_t n = u32();
        std::string s(n, '\0');
        take(s.data(), n);
        return s;
    }
    [[nodiscard]] std::vector<double> doubles() {
        const std::uint32_t n = u32();
        std::vector<double> v(n);
        take(v.data(), n * sizeof(double));
        return v;
    }
    [[nodiscard]] bool done() const { return pos_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const {
        return data_.size() - pos_;
    }

  private:
    void take(void* out, std::size_t n) {
        if (n > data_.size() - pos_)
            throw std::runtime_error("wire: truncated payload");
        std::memcpy(out, data_.data() + pos_, n);
        pos_ += n;
    }
    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

/// One parsed frame.
struct Frame {
    std::uint8_t type = 0;
    std::vector<std::uint8_t> payload;
};

/// Write one complete frame to a stream socket. Loops over short writes and
/// retries EINTR; on EAGAIN/EWOULDBLOCK (a nonblocking fd, or a blocking fd
/// with SO_SNDTIMEO, meeting a full socket buffer) it polls for writability
/// and resumes — a partial header or payload write never corrupts the
/// stream. Throws std::system_error on failure. Uses MSG_NOSIGNAL so a
/// departed peer surfaces as EPIPE, not SIGPIPE.
void write_frame(int fd, std::uint8_t type,
                 std::span<const std::uint8_t> payload);

/// Read one complete frame, with the same short-read/EINTR/EAGAIN looping
/// as write_frame. Returns false on clean EOF at a frame boundary; throws
/// on a truncated frame or read error.
[[nodiscard]] bool read_frame(int fd, Frame& out);

/// A frame as contiguous bytes (header + payload): what a peer writes for
/// one frame. Tests craft mesh traffic with it.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::uint8_t type, std::span<const std::uint8_t> payload);

/// Largest frame length accepted before declaring the stream corrupt.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

}  // namespace advect::msg::wire
