#pragma once
/// \file inject.hpp
/// The runtime fault injector. A chaos::Session installs a process-global
/// Injector for its lifetime; the substrates (msg, gpu, impl) call the free
/// hook functions below at their injection points, each of which is a single
/// relaxed atomic load when no session is active — chaos costs nothing when
/// off, exactly like the trace recorder.
///
/// Determinism: every draw is keyed on (seed, rule, rank, step, site,
/// occurrence) via the pure functions in fault.hpp. The site and step come
/// from thread-local scope objects the plan executor (ScopedTaskSite) and
/// halo exchange (ScopedMsgSite) maintain, and occurrence counters are
/// per-thread, so each rank's draw sequence is a pure function of its own
/// execution order — identical across replays regardless of cross-rank
/// interleaving.
///
/// Delayed delivery preserves MPI non-overtaking: all chaos-routed sends
/// between one (src, dst) pair pass through a ticketed FIFO channel, so a
/// delayed (or dropped-and-retransmitted) message can never be overtaken by
/// a later send on the same channel — later messages queue behind it.
///
/// Lifetime precondition: the Session must outlive the run it perturbs, and
/// every perturbed message must be received before run_ranks returns (all
/// nine implementations wait on every halo message each step, so this holds
/// by construction). A held delivery may still fire after its sender's rank
/// thread has exited; msg::Communicator's delivery closure shares ownership
/// of the in-process transport and its World for that case. Deliveries
/// still pending when the Session is destroyed are discarded, never
/// delivered to a dead mailbox.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "chaos/fault.hpp"

namespace advect::chaos {

/// Thrown by a kernel launch the chaos engine failed (GpuFail); the plan
/// executor retries the launch, drawing a fresh occurrence.
class TransientError : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/// What the injector decided for one kernel launch.
struct KernelFault {
    double slow_us = 0.0;  ///< extra device occupancy after the kernel runs
    bool fail = false;     ///< throw TransientError instead of enqueueing
};

/// Installs the fault plan as the process-wide injector (RAII). At most one
/// session may be active at a time.
class Session {
  public:
    explicit Session(FaultPlan plan);
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    [[nodiscard]] const FaultPlan& plan() const { return plan_; }

    /// Every fault fired so far, in canonical order (see sort_log).
    [[nodiscard]] std::vector<FaultEvent> log() const;
    /// Fired events of one kind.
    [[nodiscard]] std::size_t count(FaultKind k) const;
    /// Largest per-rank injected total, in seconds (the straggler bound).
    [[nodiscard]] double max_rank_injected_seconds() const;

    /// Release every send currently held by a MsgDrop fault (the receiver's
    /// timeout handler calls this via request_retransmits()).
    void retransmit_lost();

    /// How many retransmit requests (retransmit_lost calls) this session has
    /// served, across all ranks in this process. The backoff tests pin the
    /// deadline-slicing fix with it: a tiny plan timeout must produce a
    /// bounded count, not a busy storm.
    [[nodiscard]] std::uint64_t retransmit_requests() const {
        return retransmit_requests_.load(std::memory_order_relaxed);
    }

    // --- substrate entry points (via the free hooks below) ----------------
    bool route_send(int src, int dst, std::function<void()> deliver);
    [[nodiscard]] KernelFault kernel_fault(int rank);
    void task_issue_delay(int rank);
    [[nodiscard]] double recv_timeout() const;

  private:
    /// Ticketed FIFO per (src, dst) pair: deliveries apply in ticket order.
    struct Channel {
        std::mutex mu;
        std::condition_variable cv;
        std::uint64_t next = 0;     ///< next ticket to hand out
        std::uint64_t serving = 0;  ///< next ticket allowed to deliver
    };

    Channel& channel(int src, int dst);
    void deliver_async(Channel& ch, std::uint64_t ticket, double delay_s,
                       bool held, std::function<void()> deliver,
                       std::string span_name, int rank);
    bool consume_fire(int rule_idx, int rank);
    void push_event(FaultEvent e);

    FaultPlan plan_;
    bool installed_ = false;

    mutable std::mutex log_mu_;
    std::vector<FaultEvent> log_;

    std::mutex fires_mu_;
    std::map<std::pair<int, int>, int> fires_;  ///< (rule, rank) -> count

    std::mutex chan_mu_;
    std::map<std::uint64_t, std::unique_ptr<Channel>> channels_;

    std::mutex threads_mu_;
    std::vector<std::jthread> threads_;

    std::atomic<std::uint64_t> retransmit_epoch_{0};
    std::atomic<std::uint64_t> retransmit_requests_{0};
    std::atomic<bool> abort_{false};
};

namespace detail {
extern std::atomic<Session*> g_session;
}  // namespace detail

/// Whether a chaos session is active. Inline relaxed load: the entire cost
/// of the hooks when chaos is off.
[[nodiscard]] inline bool active() {
    return detail::g_session.load(std::memory_order_relaxed) != nullptr;
}

/// The active session, or nullptr.
[[nodiscard]] Session* session();

/// Declares the plan task the calling thread is executing (set by the plan
/// executor around each task, and around the §IV-D master exchange). The
/// task name pointer must outlive the scope (plan task names do). Resets
/// the thread's per-task occurrence counters.
class ScopedTaskSite {
  public:
    ScopedTaskSite(const char* task, int step);
    ~ScopedTaskSite();
    ScopedTaskSite(const ScopedTaskSite&) = delete;
    ScopedTaskSite& operator=(const ScopedTaskSite&) = delete;

  private:
    const char* prev_task_;
    int prev_step_;
    int prev_send_occ_;
    int prev_kernel_occ_;
};

/// Declares the message channel sends from this scope belong to: the halo
/// channel "send_<dim>" (set by HaloExchange::start_dim) or a named system
/// channel like "allreduce_sum" (set by the msg collectives, so fault rules
/// can target collective traffic by site). The site pointer must outlive
/// the scope (both callers pass static strings). Resets the send
/// occurrence counter.
class ScopedMsgSite {
  public:
    explicit ScopedMsgSite(int dim);
    explicit ScopedMsgSite(const char* site);
    ~ScopedMsgSite();
    ScopedMsgSite(const ScopedMsgSite&) = delete;
    ScopedMsgSite& operator=(const ScopedMsgSite&) = delete;

  private:
    const char* prev_site_;
    int prev_occ_;
};

/// The calling thread's current plan-task site ("" outside the executor).
[[nodiscard]] const char* current_task_site();

// --- hooks (each a no-op returning the neutral value when !active()) ------

/// msg::Communicator::isend: returns true when the injector has taken
/// ownership of `deliver` (it will run it later, in channel FIFO order);
/// false = deliver inline as usual.
[[nodiscard]] bool on_send(int src, int dst, std::function<void()> deliver);

/// gpu::Stream::launch, on the enqueuing rank thread: the fault decision for
/// this kernel. A `fail` verdict is thrown as TransientError by the caller;
/// `slow_us` rides on the op and is slept by the device executor.
[[nodiscard]] KernelFault on_kernel(int rank);

/// PlanExecutor, before issuing a task: sleeps the drawn TaskDelay (if any)
/// and records it as a "chaos" span.
void on_task_issue(int rank);

/// Receive deadline the executor should use, in seconds; 0 = wait forever
/// (no active session or no drop rules).
[[nodiscard]] double recv_timeout_seconds();

/// Ask the active session to release held (dropped) sends; no-op when none.
void request_retransmits();

}  // namespace advect::chaos
