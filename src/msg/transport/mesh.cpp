#include "msg/transport/mesh.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "chaos/inject.hpp"
#include "msg/transport/wire.hpp"

namespace advect::msg {

namespace {

/// Teardown flush bound: how long the destructor keeps pumping to drain
/// outbound queues before giving up (a peer that stopped reading and never
/// closed — only a badly wedged job hits this).
constexpr double kTeardownFlushSeconds = 10.0;

/// How much to read per recv() call when draining a readable socket.
constexpr std::size_t kReadChunk = 64 * 1024;

/// The Thread-mode engine's poll bound.
constexpr int kEngineSliceMs = 100;

/// Frame header: u8 type | u32 length (wire.hpp).
constexpr std::size_t kHeaderBytes = 5;

/// DATA fields ahead of the doubles: u32 src | i32 tag | u64 seq | u32 count
/// (wire.hpp).
constexpr std::size_t kDataFieldBytes = 20;

/// A DATA frame up to its first payload byte.
using DataHead = std::array<std::uint8_t, kHeaderBytes + kDataFieldBytes>;

DataHead data_head(int src, int tag, std::uint64_t seq, std::size_t count) {
    DataHead head{};
    std::uint8_t* p = head.data();
    const auto put = [&p](auto v) {
        std::memcpy(p, &v, sizeof v);
        p += sizeof v;
    };
    put(static_cast<std::uint8_t>(wire::kFrameData));
    put(static_cast<std::uint32_t>(kDataFieldBytes + count * sizeof(double)));
    put(static_cast<std::uint32_t>(src));
    put(static_cast<std::int32_t>(tag));
    put(seq);
    put(static_cast<std::uint32_t>(count));
    return head;
}

/// Write `head` then `body` with one sendmsg, retrying EINTR. Returns the
/// bytes the socket took (0 when it would block), or -1 once the peer is
/// gone (EPIPE, reset).
ssize_t send_parts(int fd, std::span<const std::uint8_t> head,
                   std::span<const std::uint8_t> body) {
    iovec iov[2] = {
        {const_cast<std::uint8_t*>(head.data()), head.size()},
        {const_cast<std::uint8_t*>(body.data()), body.size()}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = body.empty() ? 1 : 2;
    for (;;) {
        const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (w >= 0) return w;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
        return -1;
    }
}

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

/// A nonblocking self-pipe: poll fds[0] for POLLIN, poke fds[1] to wake.
void open_wake_pipe(int fds[2]) {
    if (::pipe(fds) != 0)
        throw std::runtime_error("mesh transport: cannot create wake pipe");
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
}

void poke(int write_fd) {
    if (write_fd < 0) return;
    const char byte = 'x';
    // Best effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t w = ::write(write_fd, &byte, 1);
}

void drain_wakes(int read_fd) {
    char buf[256];
    while (::read(read_fd, buf, sizeof buf) > 0) {
    }
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
    // Every wait reads this rank's sockets, in both modes.
    mailbox_.set_pump(this);
    open_wake_pipe(waiter_wake_);
    if (mode_ == ProgressMode::Thread) {
        open_wake_pipe(engine_wake_);
        thread_ = std::thread([this] { flush_loop(); });
    }
}

MeshTransport::~MeshTransport() {
    stopping_.store(true, std::memory_order_release);
    poke(engine_wake_[1]);
    if (thread_.joinable()) thread_.join();
    // Flush what remains so peers read our last frames before our EOF. The
    // passes also read, so two ranks tearing down with full buffers towards
    // each other cannot wedge.
    const double deadline = monotonic_seconds() + kTeardownFlushSeconds;
    while (outbound_pending() && monotonic_seconds() < deadline) pump(0.05);
    for (auto& p : peers_)
        if (p->fd >= 0) ::close(p->fd);
    for (const int fd : {engine_wake_[0], engine_wake_[1], waiter_wake_[0],
                         waiter_wake_[1]})
        if (fd >= 0) ::close(fd);
}

void MeshTransport::deliver(int dst, int tag, std::span<const double> data) {
    if (dst == rank_) {  // self-send (periodic wrap): no socket round-trip
        mailbox_.deliver(rank_, tag, data);
        // From a chaos delivery thread, this may complete the receive a
        // waiter is blocked in poll() for: wake it.
        if (polling_.load()) poke(waiter_wake_[1]);
        return;
    }
    Peer& peer = *peers_[static_cast<std::size_t>(dst)];
    bool queued = false;
    {
        std::lock_guard lock(peer.out_mu);
        if (peer.tx_dead) return;  // receives surface the typed error
        const DataHead head =
            data_head(rank_, tag, peer.send_seq++, data.size());
        queued = post_locked(
            peer, head,
            {reinterpret_cast<const std::uint8_t*>(data.data()),
             data.size_bytes()});
    }
    if (queued) poke(engine_wake_[1]);
}

void MeshTransport::request_retransmits() {
    // Our own session may hold dropped self-sends; peers' sessions hold
    // everything they dropped on the way to us.
    chaos::request_retransmits();
    static constexpr std::uint8_t kRetransmit[kHeaderBytes] = {
        wire::kFrameRetransmit, 0, 0, 0, 0};
    bool queued = false;
    for (std::size_t r = 0; r < peers_.size(); ++r) {
        if (static_cast<int>(r) == rank_ || peers_[r]->fd < 0) continue;
        Peer& peer = *peers_[r];
        std::lock_guard lock(peer.out_mu);
        if (peer.tx_dead) continue;
        queued |= post_locked(peer, kRetransmit, {});
    }
    // Polled: the caller's next wait flushes the frames.
    if (queued) poke(engine_wake_[1]);
}

bool MeshTransport::post_locked(Peer& peer, std::span<const std::uint8_t> head,
                                std::span<const std::uint8_t> body) {
    std::size_t sent = 0;
    // Eager write: on an idle channel the caller sends what the socket
    // accepts right now instead of paying an engine wakeup per message.
    // Polled mode never sends here — it models an MPI whose isends sit
    // unflushed until the rank waits.
    if (mode_ == ProgressMode::Thread && peer.outq.empty()) {
        const ssize_t w = send_parts(peer.fd, head, body);
        if (w < 0) {
            peer.mark_tx_dead();
            return false;
        }
        sent = static_cast<std::size_t>(w);
    }
    if (sent == head.size() + body.size()) return false;
    // The unsent remainder is the sender's one copy of the payload.
    std::vector<std::uint8_t> rest;
    rest.reserve(head.size() + body.size() - sent);
    const auto append = [&rest](std::span<const std::uint8_t> part) {
        rest.insert(rest.end(), part.begin(), part.end());
    };
    if (sent < head.size()) {
        append(head.subspan(sent));
        append(body);
    } else {
        append(body.subspan(sent - head.size()));
    }
    peer.outq.push_back(std::move(rest));
    return true;
}

void MeshTransport::pump(double timeout_seconds) {
    std::lock_guard lock(pump_mu_);
    poll_pass(/*reader=*/true,
              timeout_seconds <= 0.0
                  ? 0
                  : std::max(1, static_cast<int>(timeout_seconds * 1000.0)));
}

void MeshTransport::flush_loop() {
    // Every queue that turns non-empty wakes us; the poll bound only caps
    // what a missed wakeup could cost.
    while (!stopping_.load(std::memory_order_acquire))
        if (!poll_pass(/*reader=*/false, kEngineSliceMs)) return;
}

bool MeshTransport::poll_pass(bool reader, int timeout_ms) {
    const int wake_fd = reader ? waiter_wake_[0] : engine_wake_[0];
    std::vector<pollfd> fds{{wake_fd, POLLIN, 0}};
    std::vector<int> srcs{-1};
    for (std::size_t r = 0; r < peers_.size(); ++r) {
        if (static_cast<int>(r) == rank_ || peers_[r]->fd < 0) continue;
        Peer& peer = *peers_[r];
        short events = reader && !peer.rx_closed ? POLLIN : 0;
        {
            std::lock_guard lock(peer.out_mu);
            if (!peer.outq.empty() && !peer.tx_dead) events |= POLLOUT;
        }
        if (events == 0) continue;
        fds.push_back({peer.fd, events, 0});
        srcs.push_back(static_cast<int>(r));
    }
    if (reader) polling_.store(true);
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (reader) polling_.store(false);
    if (ready < 0) {
        if (errno == EINTR) return true;
        const std::string why = std::strerror(errno);
        std::unique_lock lock(pump_mu_, std::defer_lock);
        if (!reader) lock.lock();  // the waiter already holds it
        fail_links(why);
        return false;
    }
    if (fds[0].revents & POLLIN) drain_wakes(wake_fd);
    for (std::size_t i = 1; i < fds.size(); ++i) {
        Peer& peer = *peers_[static_cast<std::size_t>(srcs[i])];
        if ((fds[i].events & POLLOUT) &&
            (fds[i].revents & (POLLOUT | POLLERR | POLLHUP))) {
            std::lock_guard lock(peer.out_mu);
            send_queued(peer);
        }
        if (reader && !peer.rx_closed &&
            (fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
            drain_recv(peer, srcs[i]);
    }
    return true;
}

void MeshTransport::send_queued(Peer& peer) {
    while (!peer.outq.empty()) {
        const auto& front = peer.outq.front();
        const ssize_t w = send_parts(
            peer.fd, {front.data() + peer.out_off, front.size() - peer.out_off},
            {});
        if (w < 0) {
            // The peer left. Drop the queue — the typed error (if this
            // mattered) comes from the read side's EOF.
            peer.mark_tx_dead();
            return;
        }
        if (w == 0) return;  // the socket would block
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
        const std::size_t room = peer.inbuf.size() - peer.in_end;
        const ssize_t r =
            ::recv(peer.fd, peer.inbuf.data() + peer.in_end, room, 0);
        const int err = errno;
        if (r > 0) {
            peer.in_end += static_cast<std::size_t>(r);
            // A short read emptied the socket: parse now instead of paying
            // one more recv() to hear EAGAIN.
            if (static_cast<std::size_t>(r) < room) break;
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
        const std::uint8_t* field = base + kHeaderBytes;
        peer.in_pos += kHeaderBytes + len;
        if (type == wire::kFrameRetransmit) {
            chaos::request_retransmits();
            continue;
        }
        if (type != wire::kFrameData) {
            violation("an unknown frame type " + std::to_string(type));
            return;
        }
        if (len < kDataFieldBytes) {
            violation("a truncated DATA frame");
            return;
        }
        std::uint32_t claimed_src = 0;
        std::int32_t tag = 0;
        std::uint64_t seq = 0;
        std::uint32_t count = 0;
        const auto take = [&field](auto& v) {
            std::memcpy(&v, field, sizeof v);
            field += sizeof v;
        };
        take(claimed_src);
        take(tag);
        take(seq);
        take(count);
        const std::uint64_t payload_bytes =
            std::uint64_t{count} * sizeof(double);
        if (payload_bytes > len - kDataFieldBytes) {
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
            // The receiving side's one copy: read buffer -> receive.
            mailbox_.deliver_bytes(src, tag, {field, payload_bytes});
        } catch (const std::length_error& e) {
            // A posted receive too small for the message: fail it typed
            // here rather than let the exception escape the waiter's pass.
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

void MeshTransport::fail_links(const std::string& why) {
    for (std::size_t r = 0; r < peers_.size(); ++r) {
        if (static_cast<int>(r) == rank_ || peers_[r]->fd < 0) continue;
        Peer& peer = *peers_[r];
        {
            std::lock_guard lock(peer.out_mu);
            peer.mark_tx_dead();
        }
        if (!peer.rx_closed)
            close_rx(peer, static_cast<int>(r),
                     "msg: rank " + std::to_string(rank_) +
                         " cannot poll its link to peer rank " +
                         std::to_string(r) + " (" + why + ")");
    }
}

bool MeshTransport::outbound_pending() const {
    for (const auto& p : peers_) {
        if (p->fd < 0) continue;
        std::lock_guard lock(p->out_mu);
        if (!p->outq.empty() && !p->tx_dead) return true;
    }
    return false;
}

}  // namespace advect::msg
