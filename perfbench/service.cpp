#include "service.hpp"

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "core/problem.hpp"
#include "model/machine.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/slo.hpp"

namespace perfbench {

namespace core = advect::core;
namespace service = advect::service;

namespace {

constexpr int kTenants = 4;
const char* const kTenantNames[kTenants] = {"t0", "t1", "t2", "t3"};
/// Draw deck of tenants: t0 carries weight 2, so it submits twice as often.
const int kTenantDeck[] = {0, 0, 1, 2, 3};
/// Open-loop Poisson arrivals per second: low enough that the daemon's
/// queue stays short, so latency tracks the job rather than the backlog.
constexpr double kRate = 80.0;
/// Jobs each tenant keeps in flight while saturating (4 x 12 stays within
/// the daemon's 64-job admission queue).
constexpr std::size_t kOutstanding = 12;

/// One job class of the mix: small inproc jobs, 8 steps, 2 ranks x 1
/// thread, n in {16, 24, 32}, over three implementations: the serial one,
/// a nonblocking MPI one and the fully overlapped CPU+GPU one.
struct JobClass {
    service::JobSpec spec;
    core::Norms expected;  ///< reference solution's error norms
    double price_s = 0.0;  ///< modelled price (admission oracle)
};

std::vector<JobClass> job_classes(const service::CostOracle& oracle) {
    std::vector<JobClass> classes;
    std::map<int, core::Norms> ref;  // by n; computed once, outside timers
    for (const int n : {16, 24, 32})
        for (const char* id : {"single_task", "mpi_nonblocking", "cpu_gpu_overlap"}) {
            JobClass c;
            c.spec.impl = id;
            c.spec.n = n;
            c.spec.steps = 8;
            c.spec.ranks = 2;
            c.spec.threads = 1;
            const auto cfg = c.spec.solver_config();
            if (!ref.count(n))
                ref[n] = core::error_vs_analytic(
                    cfg.problem, core::run_reference(cfg.problem, cfg.steps),
                    cfg.steps);
            c.expected = ref[n];
            c.price_s = oracle.price_seconds(c.spec);
            classes.push_back(std::move(c));
        }
    return classes;
}

/// Stratified draws: every class once per shuffled deck, so the mix of a
/// run does not depend on the seed, only its order does.
class Deck {
  public:
    Deck(std::size_t size, Rng& rng) : size_(size), rng_(rng) {}
    std::size_t draw() {
        if (next_ == order_.size()) {
            order_.resize(size_);
            for (std::size_t i = 0; i < size_; ++i) order_[i] = i;
            rng_.shuffle(order_);
            next_ = 0;
        }
        return order_[next_++];
    }

  private:
    std::size_t size_;
    Rng& rng_;
    std::vector<std::size_t> order_;
    std::size_t next_ = 0;
};

struct Pending {
    std::size_t cls;
    double due = 0.0;    ///< open loop only
    double acked = 0.0;  ///< when the submit ack arrived
    bool open = false;
};

void sleep_until(double t) {
    const double dt = t - now_s();
    if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}

}  // namespace

void ServiceOutcome::merge(const ServiceOutcome& o) {
    for (auto [mine, theirs] :
         {std::pair{&latency_s, &o.latency_s}, {&late_s, &o.late_s},
          {&queue_wait_s, &o.queue_wait_s}, {&run_s, &o.run_s},
          {&dispatch_s, &o.dispatch_s}, {&cost_ratio, &o.cost_ratio},
          {&price_us, &o.price_us}})
        mine->insert(mine->end(), theirs->begin(), theirs->end());
    sat_jobs += o.sat_jobs;
    sat_seconds += o.sat_seconds;
    sat_batches += o.sat_batches;
}

ServiceOutcome run_service(const ServiceParams& params, Rng& rng, CallLog& log,
                           Tally& tally) {
    ServiceOutcome out;
    service::DaemonConfig dc;
    dc.socket_path = params.socket_path;
    dc.queue_capacity = 64;
    dc.max_batch = 4;
    dc.tenant_weights = {{"t0", 2.0}, {"t1", 1.0}, {"t2", 1.0}, {"t3", 1.0}};
    try {
        // What advectd does at start-up: price admission on the localhost
        // machine calibrated from the tracked kernel rates.
        dc.oracle.machine = advect::model::localhost_from_bench("BENCH_kernels.json");
    } catch (const std::exception&) {
        dc.oracle.machine = advect::model::MachineSpec::localhost();
    }
    const std::vector<JobClass> classes = job_classes(dc.oracle);

    // model.price_us: the admission oracle's cost per job, timed alone.
    for (int r = 0; r < 3; ++r)
        out.price_us.push_back(1e6 * log.time("probe:price", [&] {
            for (const auto& c : classes) (void)dc.oracle.price_seconds(c.spec);
        }) / static_cast<double>(classes.size()));

    service::Daemon daemon(dc);
    std::string daemon_error;  // written before daemon_failed is set
    std::atomic<bool> daemon_failed{false};
    std::thread daemon_thread([&] {
        try {
            daemon.run();
        } catch (const std::exception& e) {
            daemon_error = e.what();
            daemon_failed = true;
        }
    });

    // Connect once the daemon has bound its socket.
    const auto connect = [&] {
        const double give_up = now_s() + 10.0;
        while (true) {
            try {
                return std::make_unique<service::Client>(params.socket_path, 60.0);
            } catch (const std::exception&) {
                if (now_s() > give_up || daemon_failed) throw;
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        }
    };
    std::unique_ptr<service::Client> control;
    std::vector<std::unique_ptr<service::Client>> clients;
    std::vector<std::map<std::uint64_t, Pending>> pending(kTenants);

    // Feeder threads share `out` and `tally` in the saturating phase.
    std::mutex mu;
    // Record one finished job.
    const auto finish = [&](const service::CompletedJob& job, const Pending& p) {
        const std::lock_guard lock(mu);
        const JobClass& c = classes[p.cls];
        const double dispatch = job.turnaround_s - job.queue_wait_s - job.wall_s;
        bool ok = job.ok;
        if (!job.ok)
            tally.fail("job " + std::to_string(job.id) + " failed: " + job.error);
        else if (job.l2 != c.expected.l2 || job.linf != c.expected.linf) {
            tally.fail("job " + std::to_string(job.id) + " (" + c.spec.key() +
                       "): error norms differ from the reference");
            ok = false;
        }
        if (p.open)
            out.latency_s.push_back(ok ? (p.acked - p.due) + job.turnaround_s
                                       : params.open_s);
        if (!ok) return;
        out.queue_wait_s.push_back(job.queue_wait_s);
        out.run_s.push_back(job.wall_s);
        out.dispatch_s.push_back(dispatch);
        if (std::isfinite(c.price_s)) out.cost_ratio.push_back(c.price_s / job.wall_s);
    };
    // Submit one job of class `cls` for `tenant`; false when refused.
    const auto submit = [&](int tenant, Pending p) {
        {
            const std::lock_guard lock(mu);
            ++tally.attempted;
        }
        service::JobSpec spec = classes[p.cls].spec;
        spec.tenant = kTenantNames[tenant];
        try {
            const std::uint64_t id = clients[static_cast<std::size_t>(tenant)]->submit(spec);
            p.acked = now_s();
            pending[static_cast<std::size_t>(tenant)][id] = p;
            return true;
        } catch (const service::RejectedError& e) {
            const std::lock_guard lock(mu);
            tally.fail(std::string("job refused: ") + e.what());
            if (p.open) out.latency_s.push_back(params.open_s);
            return false;
        }
    };
    const auto collect = [&](int tenant, std::size_t count) {
        auto& mine = pending[static_cast<std::size_t>(tenant)];
        for (const auto& job : clients[static_cast<std::size_t>(tenant)]->wait_all(count)) {
            const auto it = mine.find(job.id);
            if (it == mine.end()) {
                const std::lock_guard lock(mu);
                tally.fail("completion for unknown job " + std::to_string(job.id));
                continue;
            }
            finish(job, it->second);
            mine.erase(it);
        }
    };

    try {
        control = connect();
        for (int t = 0; t < kTenants; ++t) clients.push_back(connect());
        Deck mix(classes.size(), rng);
        Deck tenants(std::size(kTenantDeck), rng);

        // Open loop: arrivals drawn up front, latency from the due time.
        std::vector<std::pair<double, std::pair<int, std::size_t>>> arrivals;
        for (double t = 0.0;;) {
            t += -std::log(1.0 - rng.uniform()) / kRate;
            if (t >= params.open_s) break;
            arrivals.push_back({t, {kTenantDeck[tenants.draw()], mix.draw()}});
        }
        log.time("service:open_loop", [&] {
            const double start = now_s() + 0.01;
            for (const auto& [t, who] : arrivals) {
                Pending p{who.second, start + t, 0.0, true};
                sleep_until(p.due);
                out.late_s.push_back(now_s() - p.due);
                (void)submit(who.first, p);
            }
            for (int t = 0; t < kTenants; ++t)
                collect(t, pending[static_cast<std::size_t>(t)].size());
        });

        // Saturating phase: one feeder thread per tenant connection keeps
        // kOutstanding jobs queued. (A lone generator cannot: each submit
        // waits for its ack, and the daemon acks between synchronous runs,
        // so the queue would never hold more than one job.)
        const std::size_t dispatches_before =
            service::report_from_json(control->status()).dispatches.size();
        const double sat0 = now_s();
        std::atomic<long> completed{0};
        std::vector<std::thread> feeders;
        for (int t = 0; t < kTenants; ++t)
            feeders.emplace_back([&, t, deck_seed = rng.next()] {
                Rng deck_rng(deck_seed);
                Deck deck(classes.size(), deck_rng);
                auto& mine = pending[static_cast<std::size_t>(t)];
                try {
                    // Each draw is submitted twice: repeated keys, so the
                    // daemon's same-key batching has something to batch.
                    const auto refill = [&] {
                        while (mine.size() < kOutstanding &&
                               now_s() < sat0 + params.sat_s) {
                            const std::size_t cls = deck.draw();
                            if (!submit(t, Pending{cls}) || !submit(t, Pending{cls})) break;
                        }
                    };
                    refill();
                    while (!mine.empty()) {
                        collect(t, 1);
                        ++completed;
                        refill();
                    }
                } catch (const std::exception& e) {
                    const std::lock_guard lock(mu);
                    tally.fail(std::string(kTenantNames[t]) + " feeder: " + e.what());
                }
            });
        for (auto& f : feeders) f.join();
        out.sat_jobs = static_cast<double>(completed.load());
        out.sat_seconds = now_s() - sat0;
        log.record("service:saturate", sat0, sat0 + out.sat_seconds);

        const auto report = service::report_from_json(control->drain());
        out.sat_batches =
            static_cast<double>(report.dispatches.size() - dispatches_before);
    } catch (const std::exception& e) {
        tally.fail(std::string("service phase: ") + e.what());
        // Unblock the daemon so the thread can be joined.
        try {
            if (!control) control = connect();
            (void)control->drain();
        } catch (const std::exception&) {
        }
    }
    daemon_thread.join();
    if (daemon_failed) tally.fail("advectd: " + daemon_error);
    return out;
}

}  // namespace perfbench
