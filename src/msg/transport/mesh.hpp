#pragma once
/// \file mesh.hpp
/// The process-rank transport (docs/TRANSPORT.md): each rank is a process
/// holding one connected stream socket per peer — a full mesh. How the fds
/// were obtained does not matter here; the two launchers in process.hpp
/// produce them either as an inherited row of Unix-domain socketpairs or by
/// TCP host-list rendezvous (tcp.hpp). MeshTransport owns the fds, the
/// local mailbox, and the progress engine that moves bytes between them —
/// the component that advances outstanding sends and receives without the
/// owning rank sitting in wait(). That is the fix for the paper's Fig 3
/// pathology: nonblocking overlap *hurts* at scale when nothing progresses
/// the messages while ranks compute (*MPI Progress For All*, PAPERS.md).
///
/// Two progress modes:
///
///  * Thread (the default, `ADVECT_PROGRESS` unset or "on") — a per-process
///    engine thread drains per-peer outbound frame queues, parses inbound
///    frames incrementally, completes receives into the mailbox, and
///    services RETRANS frames — all while the rank computes. deliver()
///    first tries an eager nonblocking send from the caller when the peer's
///    queue is empty, and queues (and wakes the engine) only for what the
///    socket did not take; the rank never blocks on a socket buffer.
///
///  * Polled (`ADVECT_PROGRESS=off`) — no thread. deliver() only enqueues;
///    bytes move exclusively inside pump(), which the Request wait paths
///    call (the mailbox stamps this transport into every posted receive as
///    its ProgressPump). This deliberately reproduces a
///    no-asynchronous-progress MPI: outstanding isends sit unflushed until
///    the rank blocks, which is exactly the behaviour the Fig-3 rank sweep
///    measures against.
///
/// Ordering: one outbound queue per peer, appended under a per-peer lock and
/// drained in order by a single engine pass at a time (the eager send only
/// runs when that queue is empty), preserves the per-(src, dst) frame order
/// that the data-frame sequence numbers verify on receipt. The chaos engine
/// orders deliver() calls themselves (ticketed FIFO per channel), exactly
/// as in-process — so non-overtaking and seed replay survive the backend
/// switch.
///
/// Failures never abort. Peer EOF or reset fails that peer's receives with
/// a TransportError whose message says "disconnected"; a protocol violation
/// (a length header above wire::kMaxFrameBytes, an unknown frame type, a
/// DATA frame whose claimed source or sequence number is wrong, a poll
/// failure) fails them with a TransportError naming both ranks and the
/// violation, and the engine stops reading that peer.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "msg/transport/transport.hpp"

namespace advect::msg {

enum class ProgressMode {
    Thread,  ///< dedicated engine thread (asynchronous progress)
    Polled,  ///< bytes move only inside pump() (no asynchronous progress)
};

[[nodiscard]] const char* progress_mode_name(ProgressMode mode);

/// ADVECT_PROGRESS env: "off"/"0"/"poll"/"polled" => Polled, else Thread.
[[nodiscard]] ProgressMode progress_mode_from_env();

class MeshTransport final : public Transport, public ProgressPump {
  public:
    /// `peer_fds[r]` is a connected stream socket to rank `r` (our own index
    /// ignored; -1 entries are absent peers). Takes ownership, switches the
    /// fds nonblocking, and in Thread mode starts the engine thread; in
    /// Polled mode installs itself as the mailbox's pump.
    MeshTransport(int rank, std::vector<int> peer_fds, ProgressMode mode);
    /// Flushes every queued outbound frame (bounded by a teardown deadline;
    /// a departed peer's queue is dropped), stops the thread, closes fds —
    /// so peers mid-run read our data before our EOF.
    ~MeshTransport() override;
    MeshTransport(const MeshTransport&) = delete;
    MeshTransport& operator=(const MeshTransport&) = delete;

    [[nodiscard]] int rank() const override { return rank_; }
    [[nodiscard]] int size() const override {
        return static_cast<int>(peers_.size());
    }
    [[nodiscard]] ProgressMode mode() const { return mode_; }

    /// Send a sequence-numbered data frame to `dst` (buffered-send
    /// semantics: the caller's span is copied); self-sends go straight to
    /// the mailbox.
    void deliver(int dst, int tag, std::span<const double> data) override;
    [[nodiscard]] Mailbox& mailbox() override { return mailbox_; }
    /// Release our own chaos-dropped sends and queue a RETRANS frame for
    /// every live peer, since a dropped send is held inside the *sender's*
    /// chaos session. Never throws: a peer that already left holds nothing
    /// we could still be waiting for.
    void request_retransmits() override;

    /// One engine pass (ProgressPump): flush what the sockets accept, read
    /// and deliver what arrived. Blocks at most `timeout_seconds` in poll.
    /// Thread-safe; passes serialize on an internal mutex (the engine
    /// thread runs the same code).
    void pump(double timeout_seconds) override;

  private:
    struct Peer {
        int fd = -1;
        // -- senders (any thread), guarded by out_mu --------------------
        mutable std::mutex out_mu;
        std::deque<std::vector<std::uint8_t>> outq;  ///< framed bytes
        std::size_t out_off = 0;      ///< bytes of outq.front() already sent
        std::uint64_t send_seq = 0;   ///< data frames only
        bool tx_dead = false;         ///< write hit EPIPE/reset; queue void
        // -- engine side, guarded by pump_mu_ ---------------------------
        std::vector<std::uint8_t> inbuf;  ///< [in_pos, in_end) unparsed
        std::size_t in_pos = 0;
        std::size_t in_end = 0;
        std::uint64_t recv_seq = 0;   ///< data frames only
        bool rx_closed = false;       ///< EOF, reset or protocol violation
    };

    void thread_loop();
    /// The engine pass body; caller holds pump_mu_.
    void pump_locked(double timeout_seconds);
    /// Send queued frames until the socket would block; caller holds
    /// peer.out_mu.
    void send_queued(Peer& peer);
    void drain_recv(Peer& peer, int src);
    void parse_frames(Peer& peer, int src);
    /// Stop reading `src` and fail every receive that depends on it.
    void close_rx(Peer& peer, int src, const std::string& reason);
    [[nodiscard]] bool outbound_pending() const;
    void wake();

    int rank_;
    ProgressMode mode_;
    Mailbox mailbox_;
    std::vector<std::unique_ptr<Peer>> peers_;
    int wake_fds_[2] = {-1, -1};
    std::mutex pump_mu_;
    std::atomic<bool> stopping_{false};
    std::thread thread_;
};

}  // namespace advect::msg
