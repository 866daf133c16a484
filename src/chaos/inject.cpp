#include "chaos/inject.hpp"

#include <chrono>

#include "trace/span.hpp"

namespace advect::chaos {

namespace detail {
std::atomic<Session*> g_session{nullptr};
}  // namespace detail

namespace {

void sleep_seconds(double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Per-thread injection coordinate. The task pointer aliases the executing
/// plan's task name (stable for the run); msg_site points at the static
/// channel names from send_site_name.
struct ThreadSite {
    const char* task = "";
    const char* msg_site = nullptr;
    int step = -1;
    int send_occ = 0;
    int kernel_occ = 0;
};

ThreadSite& thread_site() {
    thread_local ThreadSite site;
    return site;
}

}  // namespace

Session::Session(FaultPlan plan) : plan_(std::move(plan)) {
    Session* expected = nullptr;
    if (!detail::g_session.compare_exchange_strong(expected, this,
                                                   std::memory_order_acq_rel))
        throw std::logic_error("chaos: a Session is already active");
    installed_ = true;
}

Session::~Session() {
    if (installed_)
        detail::g_session.store(nullptr, std::memory_order_release);
    // Wake every pending delivery. Sends still held here were never waited
    // on by any rank (the run is over), so they are discarded, not delivered
    // into a possibly-destroyed World.
    abort_.store(true, std::memory_order_release);
    {
        std::lock_guard lk(chan_mu_);
        for (auto& [key, ch] : channels_) {
            std::lock_guard cl(ch->mu);
            ch->cv.notify_all();
        }
    }
    std::vector<std::jthread> ts;
    {
        std::lock_guard lk(threads_mu_);
        ts = std::move(threads_);
    }
    ts.clear();  // joins
}

std::vector<FaultEvent> Session::log() const {
    std::vector<FaultEvent> out;
    {
        std::lock_guard lk(log_mu_);
        out = log_;
    }
    sort_log(out);
    return out;
}

std::size_t Session::count(FaultKind k) const {
    std::lock_guard lk(log_mu_);
    std::size_t n = 0;
    for (const auto& e : log_)
        if (e.kind == k) ++n;
    return n;
}

double Session::max_rank_injected_seconds() const {
    std::map<int, double> per_rank;
    {
        std::lock_guard lk(log_mu_);
        for (const auto& e : log_) per_rank[e.rank] += e.amount_us;
    }
    double mx = 0.0;
    for (const auto& [rank, us] : per_rank) mx = std::max(mx, us);
    return mx * 1e-6;
}

void Session::retransmit_lost() {
    retransmit_requests_.fetch_add(1, std::memory_order_relaxed);
    retransmit_epoch_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard lk(chan_mu_);
    for (auto& [key, ch] : channels_) {
        std::lock_guard cl(ch->mu);
        ch->cv.notify_all();
    }
}

Session::Channel& Session::channel(int src, int dst) {
    const std::uint64_t key = (static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(src))
                               << 32) |
                              static_cast<std::uint32_t>(dst);
    std::lock_guard lk(chan_mu_);
    auto& slot = channels_[key];
    if (!slot) slot = std::make_unique<Channel>();
    return *slot;
}

bool Session::consume_fire(int rule_idx, int rank) {
    const int cap =
        plan_.rules[static_cast<std::size_t>(rule_idx)].max_fires;
    if (cap < 0) return true;
    std::lock_guard lk(fires_mu_);
    int& n = fires_[{rule_idx, rank}];
    if (n >= cap) return false;
    ++n;
    return true;
}

void Session::push_event(FaultEvent e) {
    std::lock_guard lk(log_mu_);
    log_.push_back(std::move(e));
}

bool Session::route_send(int src, int dst, std::function<void()> deliver) {
    auto& site = thread_site();
    const char* s = site.msg_site != nullptr ? site.msg_site : site.task;
    const int occ = site.send_occ++;
    double delay_us = 0.0;
    bool drop = false;
    for (int ri = 0; ri < static_cast<int>(plan_.rules.size()); ++ri) {
        const auto& rule = plan_.rules[static_cast<std::size_t>(ri)];
        if (rule.kind != FaultKind::MsgDelay &&
            rule.kind != FaultKind::MsgDrop)
            continue;
        if (!rule_matches(rule, src, site.step, s)) continue;
        if (!draw_fires(plan_, ri, src, site.step, s, occ)) continue;
        if (rule.kind == FaultKind::MsgDelay) {
            // A zero-length delay perturbs nothing: not a fire (this is what
            // makes a zero-amplitude plan fully transparent).
            const double a = draw_amount_us(plan_, ri, src, site.step, s, occ);
            if (a <= 0.0) continue;
            if (!consume_fire(ri, src)) continue;
            delay_us += a;
            push_event({FaultKind::MsgDelay, ri, src, site.step, occ, s, a});
        } else {
            if (!consume_fire(ri, src)) continue;
            drop = true;
            push_event({FaultKind::MsgDrop, ri, src, site.step, occ, s, 0.0});
        }
    }
    Channel& ch = channel(src, dst);
    std::uint64_t ticket = 0;
    {
        std::lock_guard lk(ch.mu);
        if (!drop && delay_us <= 0.0 && ch.serving == ch.next) {
            // No fault and nothing queued ahead on this channel: deliver
            // inline (the common path of a sparse scenario).
            ++ch.next;
            deliver();
            ++ch.serving;
            return true;
        }
        ticket = ch.next++;
    }
    std::string span_name =
        std::string(drop ? "drop:" : "delay:") + (s[0] != '\0' ? s : "msg");
    deliver_async(ch, ticket, delay_us * 1e-6, drop, std::move(deliver),
                  std::move(span_name), src);
    return true;
}

void Session::deliver_async(Channel& ch, std::uint64_t ticket, double delay_s,
                            bool held, std::function<void()> deliver,
                            std::string span_name, int rank) {
    const std::uint64_t epoch0 =
        retransmit_epoch_.load(std::memory_order_acquire);
    std::jthread th([this, &ch, ticket, delay_s, held, epoch0,
                     deliver = std::move(deliver),
                     span_name = std::move(span_name), rank] {
        // Only a perturbed delivery records a "chaos" span. An unfaulted send
        // that merely queued behind one (FIFO head-of-line) is left silent:
        // whether it queues at all depends on wall-clock timing, and the
        // injected-time report must count injected faults, not their wake.
        const bool perturbed = held || delay_s > 0.0;
        const double t0 = perturbed && trace::enabled() ? trace::now() : -1.0;
        if (delay_s > 0.0) sleep_seconds(delay_s);
        std::unique_lock lk(ch.mu);
        ch.cv.wait(lk, [&] {
            return abort_.load(std::memory_order_acquire) ||
                   (ch.serving == ticket &&
                    (!held || retransmit_epoch_.load(
                                  std::memory_order_acquire) > epoch0));
        });
        if (abort_.load(std::memory_order_acquire)) return;
        deliver();
        ++ch.serving;
        ch.cv.notify_all();
        lk.unlock();
        if (t0 >= 0.0 && trace::enabled())
            trace::record(span_name, "chaos", trace::Lane::Nic, t0,
                          trace::now(), rank);
    });
    std::lock_guard lk(threads_mu_);
    threads_.push_back(std::move(th));
}

KernelFault Session::kernel_fault(int rank) {
    auto& site = thread_site();
    const int occ = site.kernel_occ++;
    KernelFault f;
    for (int ri = 0; ri < static_cast<int>(plan_.rules.size()); ++ri) {
        const auto& rule = plan_.rules[static_cast<std::size_t>(ri)];
        if (rule.kind != FaultKind::GpuSlow &&
            rule.kind != FaultKind::GpuFail)
            continue;
        if (!rule_matches(rule, rank, site.step, site.task)) continue;
        if (!draw_fires(plan_, ri, rank, site.step, site.task, occ)) continue;
        if (rule.kind == FaultKind::GpuSlow) {
            const double a =
                draw_amount_us(plan_, ri, rank, site.step, site.task, occ);
            if (a <= 0.0) continue;  // zero-length slowdowns are not fires
            if (!consume_fire(ri, rank)) continue;
            f.slow_us += a;
            push_event(
                {FaultKind::GpuSlow, ri, rank, site.step, occ, site.task, a});
        } else {
            if (!consume_fire(ri, rank)) continue;
            f.fail = true;
            push_event({FaultKind::GpuFail, ri, rank, site.step, occ,
                        site.task, 0.0});
        }
    }
    return f;
}

void Session::task_issue_delay(int rank) {
    auto& site = thread_site();
    if (site.task[0] == '\0') return;
    double us = 0.0;
    for (int ri = 0; ri < static_cast<int>(plan_.rules.size()); ++ri) {
        const auto& rule = plan_.rules[static_cast<std::size_t>(ri)];
        if (rule.kind != FaultKind::TaskDelay) continue;
        if (!rule_matches(rule, rank, site.step, site.task)) continue;
        if (!draw_fires(plan_, ri, rank, site.step, site.task, 0)) continue;
        const double a =
            draw_amount_us(plan_, ri, rank, site.step, site.task, 0);
        if (a <= 0.0) continue;  // zero-length stalls are not fires
        if (!consume_fire(ri, rank)) continue;
        us += a;
        push_event(
            {FaultKind::TaskDelay, ri, rank, site.step, 0, site.task, a});
    }
    if (us <= 0.0) return;
    const double t0 = trace::enabled() ? trace::now() : -1.0;
    sleep_seconds(us * 1e-6);
    if (t0 >= 0.0 && trace::enabled())
        trace::record(std::string("delay:") + site.task, "chaos",
                      trace::Lane::Cpu, t0, trace::now(), rank);
}

double Session::recv_timeout() const {
    return plan_.has_kind(FaultKind::MsgDrop) ? plan_.timeout_s : 0.0;
}

Session* session() {
    return detail::g_session.load(std::memory_order_acquire);
}

ScopedTaskSite::ScopedTaskSite(const char* task, int step) {
    auto& site = thread_site();
    prev_task_ = site.task;
    prev_step_ = site.step;
    prev_send_occ_ = site.send_occ;
    prev_kernel_occ_ = site.kernel_occ;
    site.task = task;
    site.step = step;
    site.send_occ = 0;
    site.kernel_occ = 0;
}

ScopedTaskSite::~ScopedTaskSite() {
    auto& site = thread_site();
    site.task = prev_task_;
    site.step = prev_step_;
    site.send_occ = prev_send_occ_;
    site.kernel_occ = prev_kernel_occ_;
}

ScopedMsgSite::ScopedMsgSite(int dim) : ScopedMsgSite(send_site_name(dim)) {}

ScopedMsgSite::ScopedMsgSite(const char* name) {
    auto& site = thread_site();
    prev_site_ = site.msg_site;
    prev_occ_ = site.send_occ;
    site.msg_site = name;
    site.send_occ = 0;
}

ScopedMsgSite::~ScopedMsgSite() {
    auto& site = thread_site();
    site.msg_site = prev_site_;
    site.send_occ = prev_occ_;
}

const char* current_task_site() { return thread_site().task; }

bool on_send(int src, int dst, std::function<void()> deliver) {
    Session* s = session();
    return s != nullptr && s->route_send(src, dst, std::move(deliver));
}

KernelFault on_kernel(int rank) {
    Session* s = session();
    return s != nullptr ? s->kernel_fault(rank) : KernelFault{};
}

void on_task_issue(int rank) {
    if (Session* s = session()) s->task_issue_delay(rank);
}

double recv_timeout_seconds() {
    Session* s = session();
    return s != nullptr ? s->recv_timeout() : 0.0;
}

void request_retransmits() {
    if (Session* s = session()) s->retransmit_lost();
}

}  // namespace advect::chaos
