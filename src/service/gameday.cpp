#include "service/gameday.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "impl/launch.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

namespace advect::service {

namespace {

/// Connect with retries while the daemon thread brings the socket up.
Client connect_when_up(const std::string& path, double timeout_s) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (true) {
        try {
            return Client(path, timeout_s);
        } catch (const std::system_error&) {
            if (std::chrono::steady_clock::now() >= deadline)
                throw TimeoutError("daemon socket " + path +
                                   " never came up");
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
}

}  // namespace

std::pair<double, double> fair_share_window(
    const SloReport& report, const std::vector<std::string>& tenants,
    const std::vector<double>& weights) {
    const std::set<std::string> all(tenants.begin(), tenants.end());
    const auto covers = [&](const DispatchRecord& d) {
        std::set<std::string> seen(d.backlogged.begin(), d.backlogged.end());
        return std::includes(seen.begin(), seen.end(), all.begin(),
                             all.end());
    };
    // Round-aligned window. Within the contended region (every tenant
    // backlogged at the snapshot) DRR serves the last tenant in rotation
    // exactly once per round, so the dispatches strictly after its first
    // serve up to and including its last serve span a whole number of
    // rounds. Summing over that span removes the round-fragment bias that
    // a raw all-backlogged window carries at small round counts (who
    // serves first in a round would otherwise skew the ratio by O(1/R)).
    const std::string& marker = tenants.back();
    std::size_t first = report.dispatches.size();
    std::size_t last = report.dispatches.size();
    for (std::size_t i = 0; i < report.dispatches.size(); ++i) {
        if (!covers(report.dispatches[i]) ||
            report.dispatches[i].tenant != marker)
            continue;
        if (first == report.dispatches.size()) first = i;
        last = i;
    }
    std::vector<double> served(tenants.size(), 0.0);
    if (first == report.dispatches.size() || last == first)
        return {0.0, 0.0};  // fewer than two marker serves: no full round
    for (std::size_t i = first + 1; i <= last; ++i) {
        if (!covers(report.dispatches[i])) continue;
        for (std::size_t t = 0; t < tenants.size(); ++t)
            if (report.dispatches[i].tenant == tenants[t])
                served[t] += report.dispatches[i].cost_s;
    }
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const double w = weights[t % weights.size()];
        const double norm = w > 0.0 ? served[t] / w : 0.0;
        lo = std::min(lo, norm);
        hi = std::max(hi, norm);
    }
    if (!(lo > 0.0)) return {0.0, 0.0};
    double rest = 0.0;
    int nrest = 0;
    for (std::size_t t = 1; t < tenants.size(); ++t) {
        rest += served[t];
        ++nrest;
    }
    const double ratio =
        nrest > 0 && rest > 0.0 ? served[0] / (rest / nrest) : 0.0;
    return {hi / lo, ratio};
}

GameDayOutcome run_game_day(const GameDayConfig& cfg) {
    if (cfg.tenants < 2)
        throw std::invalid_argument("gameday: need at least 2 tenants");

    const std::string socket_path =
        !cfg.socket_path.empty()
            ? cfg.socket_path
            : "/tmp/advectd-gameday-" + std::to_string(::getpid()) + ".sock";

    std::vector<std::string> tenants;
    std::vector<double> weights;
    for (int i = 0; i < cfg.tenants; ++i) {
        tenants.push_back("tenant-" + std::to_string(i));
        weights.push_back(
            cfg.weights[static_cast<std::size_t>(i) % cfg.weights.size()]);
    }

    DaemonConfig dc;
    dc.socket_path = socket_path;
    dc.queue_capacity = cfg.queue_capacity;
    dc.max_batch = cfg.max_batch;
    dc.gameday = cfg.scenario;
    for (std::size_t i = 0; i < tenants.size(); ++i)
        dc.tenant_weights.emplace_back(tenants[i], weights[i]);
    // One job = one DRR quantum at weight 1, so rounds serve jobs in
    // weight proportion exactly.
    JobSpec probe = cfg.base;
    probe.tenant = "probe";
    dc.quantum_s = dc.oracle.cost_seconds(probe);

    // The bitwise reference: the same spec through a standalone launch.
    // Chaos (the overlay included) only delays execution, never changes
    // results, so one fault-free run is the reference for every job.
    JobSpec ref_spec = cfg.base;
    ref_spec.tenant = tenants[0];
    core::Field3 reference;
    if (cfg.verify_states) {
        impl::LaunchOptions opts;
        opts.transport = ref_spec.transport;
        reference =
            impl::launch_solver(ref_spec.impl, ref_spec.solver_config(), opts)
                .result.state;
    }

    Daemon daemon(dc);
    std::exception_ptr server_error;
    std::thread server([&daemon, &server_error] {
        try {
            daemon.run();
        } catch (...) {
            server_error = std::current_exception();
        }
    });

    GameDayOutcome outcome;
    try {
        std::vector<Client> clients;
        clients.reserve(tenants.size());
        for (const auto& t : tenants) {
            (void)t;
            clients.push_back(connect_when_up(socket_path, cfg.timeout_s));
        }

        // Write every tenant's submit frames, interleaved round-robin,
        // before reading any ack. The daemon drains every buffered frame
        // before each dispatch, so all tenants stay backlogged for the
        // whole run however fast a job solves; waiting for each ack would
        // let the daemon dispatch between submissions instead.
        std::vector<int> target(tenants.size());
        std::vector<int> submitted(tenants.size(), 0);
        for (std::size_t i = 0; i < tenants.size(); ++i)
            target[i] = std::max(
                1, static_cast<int>(std::lround(weights[i] *
                                                cfg.jobs_per_weight)));
        bool more = true;
        while (more) {
            more = false;
            for (std::size_t i = 0; i < tenants.size(); ++i) {
                if (submitted[i] >= target[i]) continue;
                JobSpec spec = cfg.base;
                spec.tenant = tenants[i];
                spec.return_state = cfg.verify_states;
                clients[i].send_submit(spec);
                ++submitted[i];
                more = true;
            }
        }
        std::vector<std::vector<std::uint64_t>> ids(tenants.size());
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            for (int k = 0; k < submitted[i]; ++k) {
                ids[i].push_back(clients[i].read_submit_ack());
                ++outcome.admitted;
            }
        }

        outcome.bitwise_ok = true;
        double absorbed_sum = 0.0;
        int absorbed_n = 0;
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            for (const std::uint64_t id : ids[i]) {
                const CompletedJob done = clients[i].wait(id);
                if (done.ok)
                    ++outcome.completed;
                else
                    ++outcome.failed;
                if (cfg.verify_states) {
                    if (!done.state ||
                        !done.state->interior_equals(reference))
                        outcome.bitwise_ok = false;
                }
                if (done.absorbed >= 0.0) {
                    absorbed_sum += done.absorbed;
                    ++absorbed_n;
                }
            }
        }
        outcome.absorbed_fraction =
            absorbed_n > 0 ? absorbed_sum / absorbed_n : -1.0;

        const std::string report_json = clients[0].drain();
        server.join();
        if (server_error) std::rethrow_exception(server_error);
        outcome.report = report_from_json(report_json);
    } catch (...) {
        // Harness failure: make sure the daemon thread cannot outlive us.
        if (server.joinable()) {
            try {
                Client killer(socket_path, 5.0);
                (void)killer.drain();
            } catch (...) {
            }
            server.join();
        }
        throw;
    }

    outcome.all_completed =
        outcome.failed == 0 && outcome.completed == outcome.admitted;
    const auto [spread, ratio] =
        fair_share_window(outcome.report, tenants, weights);
    outcome.fair_share_spread = spread;
    outcome.observed_ratio = ratio;

    if (!cfg.bench_path.empty())
        append_service_bench(outcome.report, cfg.bench_label, cfg.bench_date,
                             cfg.bench_path);
    return outcome;
}

}  // namespace advect::service
