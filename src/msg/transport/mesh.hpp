#pragma once
/// \file mesh.hpp
/// The process-rank transport (docs/TRANSPORT.md): each rank is a process
/// holding one connected stream socket per peer — a full mesh. How the fds
/// were obtained does not matter here; the two launchers in process.hpp
/// produce them either as an inherited row of Unix-domain socketpairs or by
/// TCP host-list rendezvous (tcp.hpp). MeshTransport owns the fds, the
/// local mailbox, and the progress engine that moves bytes between them —
/// the component that advances outstanding sends without the owning rank
/// sitting in wait(). That is the fix for the paper's Fig 3 pathology:
/// nonblocking overlap *hurts* at scale when nothing progresses the
/// messages while ranks compute (*MPI Progress For All*, PAPERS.md).
///
/// Who reads and who writes. A rank reads its own sockets: the mailbox
/// stamps this transport into every posted receive as its ProgressPump, so
/// Request::wait and test run the engine pass (pump) on the waiting thread
/// — flush what the sockets accept, read what arrived, copy each payload
/// straight into its matched receive — and the kernel wakes a blocked rank
/// directly, with no thread hand-off. Writes start in the caller:
/// deliver() sends the frame header and the caller's span with one
/// sendmsg and queues only what the socket did not take. The two progress
/// modes differ only in who moves those queued remainders while the rank
/// computes:
///
///  * Thread (the default, `ADVECT_PROGRESS` unset or "on") — a
///    per-process engine thread polls the sockets that have queued bytes
///    for POLLOUT, plus a wake pipe no waiter's pass reads, and flushes
///    them while the rank computes. It never reads inbound bytes, so a
///    RETRANS frame or a peer's EOF that reaches a computing rank is
///    served at that rank's next wait.
///
///  * Polled (`ADVECT_PROGRESS=off`) — no thread, and deliver() never
///    sends: it only enqueues, and bytes move exclusively inside pump().
///    This deliberately reproduces a no-asynchronous-progress MPI:
///    outstanding isends sit unflushed until the rank blocks, which is
///    exactly the behaviour the Fig-3 rank sweep measures against.
///
/// Ordering: one outbound queue per peer, appended and drained under a
/// per-peer lock (the eager send only runs when that queue is empty),
/// preserves the per-(src, dst) frame order that the data-frame sequence
/// numbers verify on receipt. The chaos engine orders deliver() calls
/// themselves (ticketed FIFO per channel), exactly as in-process — so
/// non-overtaking and seed replay survive the backend switch.
///
/// Failures never abort. Peer EOF or reset fails that peer's receives with
/// a TransportError whose message says "disconnected"; a protocol violation
/// (a length header above wire::kMaxFrameBytes, an unknown frame type, a
/// DATA frame whose claimed source or sequence number is wrong, a poll
/// failure) fails them with a TransportError naming both ranks and the
/// violation, and the transport stops reading that peer.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "msg/transport/transport.hpp"

namespace advect::msg {

/// Who moves queued outbound bytes while the rank computes. Either way the
/// rank's own waits read its sockets.
enum class ProgressMode {
    Thread,  ///< an engine thread flushes queued sends (asynchronous progress)
    Polled,  ///< bytes move only inside pump() (no asynchronous progress)
};

[[nodiscard]] const char* progress_mode_name(ProgressMode mode);

/// ADVECT_PROGRESS env: "off"/"0"/"poll"/"polled" => Polled, else Thread.
[[nodiscard]] ProgressMode progress_mode_from_env();

class MeshTransport final : public Transport, public ProgressPump {
  public:
    /// `peer_fds[r]` is a connected stream socket to rank `r` (our own index
    /// ignored; -1 entries are absent peers). Takes ownership, switches the
    /// fds nonblocking, installs itself as the mailbox's pump, and in
    /// Thread mode starts the engine thread.
    MeshTransport(int rank, std::vector<int> peer_fds, ProgressMode mode);
    /// Stops the engine thread, then pumps until every queued outbound
    /// frame is flushed (bounded by a teardown deadline; a departed peer's
    /// queue is dropped) and closes the fds — so peers mid-run read our
    /// data before our EOF.
    ~MeshTransport() override;
    MeshTransport(const MeshTransport&) = delete;
    MeshTransport& operator=(const MeshTransport&) = delete;

    [[nodiscard]] int rank() const override { return rank_; }
    [[nodiscard]] int size() const override {
        return static_cast<int>(peers_.size());
    }
    [[nodiscard]] ProgressMode mode() const { return mode_; }

    /// Send a sequence-numbered data frame to `dst` (buffered-send
    /// semantics: what the socket does not take at once is copied into the
    /// peer's queue); self-sends go straight to the mailbox.
    void deliver(int dst, int tag, std::span<const double> data) override;
    [[nodiscard]] Mailbox& mailbox() override { return mailbox_; }
    /// Release our own chaos-dropped sends and send a RETRANS frame to
    /// every live peer, since a dropped send is held inside the *sender's*
    /// chaos session. Never throws: a peer that already left holds nothing
    /// we could still be waiting for.
    void request_retransmits() override;

    /// One engine pass (ProgressPump), run by the waiting thread: flush what
    /// the sockets accept, read and deliver what arrived. Blocks at most
    /// `timeout_seconds` in poll. Thread-safe; passes serialize on an
    /// internal mutex, so one thread at a time reads the sockets.
    void pump(double timeout_seconds) override;

  private:
    struct Peer {
        int fd = -1;
        // -- senders (any thread), guarded by out_mu --------------------
        mutable std::mutex out_mu;
        std::deque<std::vector<std::uint8_t>> outq;  ///< unsent frame bytes
        std::size_t out_off = 0;      ///< bytes of outq.front() already sent
        std::uint64_t send_seq = 0;   ///< data frames only
        bool tx_dead = false;         ///< write hit EPIPE/reset; queue void
        void mark_tx_dead() {
            tx_dead = true;
            outq.clear();
            out_off = 0;
        }
        // -- readers, guarded by pump_mu_ -------------------------------
        std::vector<std::uint8_t> inbuf;  ///< [in_pos, in_end) unparsed
        std::size_t in_pos = 0;
        std::size_t in_end = 0;
        std::uint64_t recv_seq = 0;   ///< data frames only
        bool rx_closed = false;       ///< EOF, reset or protocol violation
    };

    /// The Thread-mode engine: flush queued sends until stopped.
    void flush_loop();
    /// One poll over the peers: flush every writable queue and, for the
    /// waiter (`reader`, pump_mu_ held), read every readable socket. The
    /// engine (`!reader`) polls only POLLOUT and its own wake pipe.
    /// Returns false once poll() itself failed, which fails every link.
    bool poll_pass(bool reader, int timeout_ms);
    /// Append one frame, `head` then `body`, to `peer`'s stream: in Thread
    /// mode an idle queue is written at once with one sendmsg, and only the
    /// unsent remainder is queued. Caller holds peer.out_mu; returns true
    /// when bytes were left queued.
    bool post_locked(Peer& peer, std::span<const std::uint8_t> head,
                     std::span<const std::uint8_t> body);
    /// Send queued frames until the socket would block; caller holds
    /// peer.out_mu.
    static void send_queued(Peer& peer);
    void drain_recv(Peer& peer, int src);
    void parse_frames(Peer& peer, int src);
    /// Stop reading `src` and fail every receive that depends on it;
    /// caller holds pump_mu_.
    void close_rx(Peer& peer, int src, const std::string& reason);
    /// poll() failed: no link can move again, so every live peer fails and
    /// its outbound queue is dropped. Caller holds pump_mu_.
    void fail_links(const std::string& why);
    [[nodiscard]] bool outbound_pending() const;

    int rank_;
    ProgressMode mode_;
    Mailbox mailbox_;
    std::vector<std::unique_ptr<Peer>> peers_;
    int engine_wake_[2] = {-1, -1};  ///< Thread mode: queued sends -> engine
    int waiter_wake_[2] = {-1, -1};  ///< chaos self-send -> a polling waiter
    std::atomic<bool> polling_{false};  ///< a waiter is blocked in poll()
    std::mutex pump_mu_;
    std::atomic<bool> stopping_{false};
    std::thread thread_;
};

}  // namespace advect::msg
