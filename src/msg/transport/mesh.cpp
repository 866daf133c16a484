#include "msg/transport/mesh.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "chaos/inject.hpp"
#include "msg/transport/wire.hpp"
#include "trace/span.hpp"

namespace advect::msg {

namespace {

/// Teardown flush bound: how long the destructor keeps pumping to drain
/// outbound queues before giving up (a peer that stopped reading and never
/// closed — only a badly wedged job hits this).
constexpr double kTeardownFlushSeconds = 10.0;

/// How much to read per recv() call when draining a readable socket.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Frame header: u8 type | u32 length (wire.hpp).
constexpr std::size_t kHeaderBytes = 5;

double monotonic_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw std::runtime_error("mesh transport: cannot set O_NONBLOCK");
}

/// A departed peer: launchers rank these below root causes by the word
/// "disconnected" (process.cpp, collect_results).
std::string disconnect_reason(int rank, int src, const std::string& how) {
    return "msg: peer rank " + std::to_string(src) + " disconnected (" +
           how + ") while rank " + std::to_string(rank) +
           " still depended on it";
}

/// A broken wire protocol is a root cause, so its reason must never say
/// "disconnected".
std::string violation_reason(int rank, int src, const std::string& what) {
    return "msg: rank " + std::to_string(rank) + " got " + what +
           " from peer rank " + std::to_string(src) +
           " (wire protocol violation)";
}

}  // namespace

const char* progress_mode_name(ProgressMode mode) {
    return mode == ProgressMode::Thread ? "thread" : "polled";
}

ProgressMode progress_mode_from_env() {
    const char* v = std::getenv("ADVECT_PROGRESS");
    if (v == nullptr) return ProgressMode::Thread;
    const std::string s(v);
    if (s == "off" || s == "0" || s == "poll" || s == "polled")
        return ProgressMode::Polled;
    return ProgressMode::Thread;
}

MeshTransport::MeshTransport(int rank, std::vector<int> peer_fds,
                             ProgressMode mode)
    : rank_(rank), mode_(mode) {
    peers_.reserve(peer_fds.size());
    for (int fd : peer_fds) {
        auto p = std::make_unique<Peer>();
        p->fd = fd;
        if (fd >= 0) set_nonblocking(fd);
        peers_.push_back(std::move(p));
    }
    if (::pipe(wake_fds_) != 0)
        throw std::runtime_error("mesh transport: cannot create wake pipe");
    set_nonblocking(wake_fds_[0]);
    set_nonblocking(wake_fds_[1]);
    if (mode_ == ProgressMode::Thread)
        thread_ = std::thread([this] { thread_loop(); });
    else  // no engine thread: the Request wait paths must pump
        mailbox_.set_pump(this);
}

MeshTransport::~MeshTransport() {
    stopping_.store(true, std::memory_order_release);
    wake();
    if (thread_.joinable()) {
        thread_.join();
    } else {
        // Polled mode: we are the only mover of bytes — flush what remains
        // so peers read our last frames before our EOF.
        const double deadline = monotonic_seconds() + kTeardownFlushSeconds;
        while (outbound_pending() && monotonic_seconds() < deadline)
            pump(0.05);
    }
    for (auto& p : peers_)
        if (p->fd >= 0) ::close(p->fd);
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
}

void MeshTransport::deliver(int dst, int tag, std::span<const double> data) {
    if (dst == rank_) {  // self-send (periodic wrap): no socket round-trip
        mailbox_.deliver(rank_, tag, data);
        return;
    }
    Peer& peer = *peers_[static_cast<std::size_t>(dst)];
    wire::ByteWriter w;
    {
        std::lock_guard lock(peer.out_mu);
        if (peer.tx_dead) return;  // receives surface the typed error
        w.u32(static_cast<std::uint32_t>(rank_));
        w.i32(tag);
        w.u64(peer.send_seq++);
        w.doubles(data);
        const bool idle = peer.outq.empty();
        peer.outq.push_back(wire::encode_frame(wire::kFrameData, w.bytes()));
        // Eager write: on an idle channel the caller sends what the socket
        // accepts right now instead of paying an engine wakeup per message.
        // Polled mode never sends here — it models an MPI whose isends sit
        // unflushed until the rank waits.
        if (mode_ == ProgressMode::Polled) return;
        if (idle) {
            send_queued(peer);
            if (peer.outq.empty()) return;
        }
    }
    wake();
}

void MeshTransport::request_retransmits() {
    // Our own session may hold dropped self-sends; peers' sessions hold
    // everything they dropped on the way to us.
    chaos::request_retransmits();
    const auto frame = wire::encode_frame(wire::kFrameRetransmit, {});
    for (std::size_t r = 0; r < peers_.size(); ++r) {
        if (static_cast<int>(r) == rank_ || peers_[r]->fd < 0) continue;
        Peer& peer = *peers_[r];
        std::lock_guard lock(peer.out_mu);
        if (peer.tx_dead) continue;
        peer.outq.push_back(frame);
    }
    if (mode_ == ProgressMode::Thread) {
        wake();
    } else {
        // The rank asking for retransmits is about to wait again, which
        // pumps — but push the request frames out now so peers holding our
        // data see them a slice earlier.
        pump(0.0);
    }
}

void MeshTransport::pump(double timeout_seconds) {
    std::lock_guard lock(pump_mu_);
    pump_locked(timeout_seconds);
}

void MeshTransport::thread_loop() {
    trace::set_current_rank(rank_);
    // Keep pumping past stop until the queues drain (bounded): our last
    // halo/result frames must reach peers before the destructor closes fds.
    double stop_deadline = 0.0;
    for (;;) {
        if (stopping_.load(std::memory_order_acquire)) {
            if (stop_deadline == 0.0)
                stop_deadline = monotonic_seconds() + kTeardownFlushSeconds;
            if (!outbound_pending() || monotonic_seconds() >= stop_deadline)
                return;
        }
        std::lock_guard lock(pump_mu_);
        pump_locked(0.1);
    }
}

void MeshTransport::pump_locked(double timeout_seconds) {
    std::vector<pollfd> fds;
    std::vector<int> srcs;
    fds.push_back({wake_fds_[0], POLLIN, 0});
    srcs.push_back(-1);
    for (std::size_t r = 0; r < peers_.size(); ++r) {
        if (static_cast<int>(r) == rank_ || peers_[r]->fd < 0) continue;
        Peer& peer = *peers_[r];
        short events = 0;
        if (!peer.rx_closed) events |= POLLIN;
        {
            std::lock_guard lock(peer.out_mu);
            if (!peer.outq.empty() && !peer.tx_dead) events |= POLLOUT;
        }
        if (events == 0) continue;
        fds.push_back({peer.fd, events, 0});
        srcs.push_back(static_cast<int>(r));
    }
    const int timeout_ms =
        timeout_seconds <= 0.0
            ? 0
            : std::max(1, static_cast<int>(timeout_seconds * 1000.0));
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
        if (errno == EINTR) return;
        // Not reachable with valid fds; if it happens no link can move
        // again, so every live peer fails and its outbound queue is dropped.
        const std::string why = std::strerror(errno);
        for (std::size_t i = 1; i < fds.size(); ++i) {
            Peer& peer = *peers_[static_cast<std::size_t>(srcs[i])];
            {
                std::lock_guard lock(peer.out_mu);
                peer.tx_dead = true;
                peer.outq.clear();
                peer.out_off = 0;
            }
            if (!peer.rx_closed)
                close_rx(peer, srcs[i],
                         "msg: rank " + std::to_string(rank_) +
                             " cannot poll its link to peer rank " +
                             std::to_string(srcs[i]) + " (" + why + ")");
        }
        return;
    }
    if (fds[0].revents & POLLIN) {  // drain wake bytes
        char buf[256];
        while (::read(wake_fds_[0], buf, sizeof buf) > 0) {
        }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
        Peer& peer = *peers_[static_cast<std::size_t>(srcs[i])];
        if (fds[i].revents & POLLOUT) {
            std::lock_guard lock(peer.out_mu);
            send_queued(peer);
        }
        if (!peer.rx_closed &&
            (fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
            drain_recv(peer, srcs[i]);
    }
}

void MeshTransport::send_queued(Peer& peer) {
    while (!peer.outq.empty()) {
        const auto& front = peer.outq.front();
        const ssize_t w =
            ::send(peer.fd, front.data() + peer.out_off,
                   front.size() - peer.out_off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            // EPIPE/ECONNRESET: the peer left. Drop the queue — the typed
            // error (if this mattered) comes from the read side's EOF.
            peer.tx_dead = true;
            peer.outq.clear();
            peer.out_off = 0;
            return;
        }
        peer.out_off += static_cast<std::size_t>(w);
        if (peer.out_off == front.size()) {
            peer.outq.pop_front();
            peer.out_off = 0;
        }
    }
}

void MeshTransport::drain_recv(Peer& peer, int src) {
    for (;;) {
        // Grow only when the free tail runs short: resize() zero-fills, and
        // doing that per read would cost more than the frames themselves.
        if (peer.inbuf.size() - peer.in_end < kReadChunk)
            peer.inbuf.resize(peer.in_end + kReadChunk);
        const ssize_t r = ::recv(peer.fd, peer.inbuf.data() + peer.in_end,
                                 peer.inbuf.size() - peer.in_end, 0);
        const int err = errno;
        if (r > 0) {
            peer.in_end += static_cast<std::size_t>(r);
            continue;
        }
        if (r < 0 && err == EINTR) continue;
        if (r < 0 && (err == EAGAIN || err == EWOULDBLOCK)) break;
        // EOF or reset. Frames fully received before it still count (the
        // stream delivered them in order); anything pending after that can
        // never complete -> typed error, not a hang.
        parse_frames(peer, src);
        if (peer.rx_closed) return;  // a violation already failed src
        std::string how = r == 0 ? "socket EOF" : std::strerror(err);
        if (peer.in_end > 0) how += " mid-frame";
        close_rx(peer, src, disconnect_reason(rank_, src, how));
        return;
    }
    parse_frames(peer, src);
}

void MeshTransport::parse_frames(Peer& peer, int src) {
    const auto violation = [&](const std::string& what) {
        close_rx(peer, src, violation_reason(rank_, src, what));
    };
    while (!peer.rx_closed) {
        const std::size_t avail = peer.in_end - peer.in_pos;
        if (avail < kHeaderBytes) break;
        const std::uint8_t* base = peer.inbuf.data() + peer.in_pos;
        const std::uint8_t type = base[0];
        std::uint32_t len = 0;
        std::memcpy(&len, base + 1, sizeof len);
        if (len > wire::kMaxFrameBytes) {
            violation("a length header of " + std::to_string(len) +
                      " bytes, above the " +
                      std::to_string(wire::kMaxFrameBytes) +
                      "-byte frame limit,");
            return;
        }
        if (avail < kHeaderBytes + len) break;
        wire::ByteReader r({base + kHeaderBytes, len});
        peer.in_pos += kHeaderBytes + len;
        if (type == wire::kFrameRetransmit) {
            chaos::request_retransmits();
            continue;
        }
        if (type != wire::kFrameData) {
            violation("an unknown frame type " + std::to_string(type));
            return;
        }
        std::uint32_t claimed_src = 0;
        std::int32_t tag = 0;
        std::uint64_t seq = 0;
        std::vector<double> data;
        try {
            claimed_src = r.u32();
            tag = r.i32();
            seq = r.u64();
            data = r.doubles();
        } catch (const std::runtime_error&) {
            violation("a truncated DATA frame");
            return;
        }
        // A wrong source or sequence number means the stream broke the
        // non-overtaking contract: nothing after this frame can be trusted.
        if (claimed_src != static_cast<std::uint32_t>(src) ||
            seq != peer.recv_seq) {
            violation("a DATA frame claiming src " +
                      std::to_string(claimed_src) + " seq " +
                      std::to_string(seq) + " (expected src " +
                      std::to_string(src) + " seq " +
                      std::to_string(peer.recv_seq) + ")");
            return;
        }
        ++peer.recv_seq;
        try {
            mailbox_.deliver(src, tag, data);
        } catch (const std::length_error& e) {
            // A posted receive too small for the message: fail it typed
            // here rather than let the exception end the engine thread.
            close_rx(peer, src,
                     "msg: rank " + std::to_string(rank_) +
                         " cannot deliver a message from peer rank " +
                         std::to_string(src) + ": " + e.what());
            return;
        }
    }
    // Move the unparsed tail to the front so the buffer never grows without
    // bound.
    if (peer.in_pos > 0) {
        std::memmove(peer.inbuf.data(), peer.inbuf.data() + peer.in_pos,
                     peer.in_end - peer.in_pos);
        peer.in_end -= peer.in_pos;
        peer.in_pos = 0;
    }
}

void MeshTransport::close_rx(Peer& peer, int src, const std::string& reason) {
    peer.rx_closed = true;
    peer.in_pos = peer.in_end = 0;
    mailbox_.fail_source(src, reason);
}

bool MeshTransport::outbound_pending() const {
    for (const auto& p : peers_) {
        if (p->fd < 0) continue;
        std::lock_guard lock(p->out_mu);
        if (!p->outq.empty() && !p->tx_dead) return true;
    }
    return false;
}

void MeshTransport::wake() {
    const char byte = 'x';
    // Best effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t w = ::write(wake_fds_[1], &byte, 1);
}

}  // namespace advect::msg
