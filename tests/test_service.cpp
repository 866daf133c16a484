// Tests for the advectd service core (docs/SERVICE.md): weighted deficit
// round-robin convergence and starvation-freedom, priority within a tenant,
// batching via take_matching, the typed admission rejection paths, strict
// named-key job-spec parsing, the JSON parser's nesting bound, the spec's
// JSON round-trip, per-job fault-plan
// resolution, SLO aggregation (percentiles, deadline hit-rate, the
// contended fair-share ledger), report JSON round-trip, the
// BENCH_service.json trajectory writer, and the bitwise pin of the
// committed chaos/scenarios/gameday-*.json files to the in-code catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/gameday.hpp"
#include "chaos/scenario_file.hpp"
#include "core/json.hpp"
#include "service/admission.hpp"
#include "service/job.hpp"
#include "service/scheduler.hpp"
#include "service/slo.hpp"

namespace chaos = advect::chaos;
namespace json = advect::core::json;
namespace service = advect::service;

namespace {

service::JobSpec small_spec(const std::string& tenant) {
    service::JobSpec s;
    s.tenant = tenant;
    s.impl = "mpi_nonblocking";
    s.n = 14;
    s.steps = 3;
    s.ranks = 2;
    s.threads = 1;
    return s;
}

service::QueuedJob job(const std::string& tenant, double cost,
                       int priority = 0, int n = 14) {
    service::QueuedJob q;
    q.spec = small_spec(tenant);
    q.spec.priority = priority;
    q.spec.n = n;
    q.cost_s = cost;
    return q;
}

/// Drain the scheduler, returning the tenant of every pop in order.
std::vector<std::string> drain_order(service::FairShareScheduler& s) {
    std::vector<std::string> order;
    while (auto j = s.pop()) order.push_back(j->spec.tenant);
    return order;
}

}  // namespace

// ---------------------------------------------------------------- scheduler

TEST(Scheduler, WeightedDrrServesTwoToOne) {
    // Quantum = job cost, weight 2 vs 1: every round serves exactly two "a"
    // jobs then one "b" job — DRR's served-cost-proportional-to-weight
    // guarantee at its crispest.
    service::FairShareScheduler s(1.0);
    s.set_weight("a", 2.0);
    s.set_weight("b", 1.0);
    for (int i = 0; i < 6; ++i) {
        s.push(job("a", 1.0));
        s.push(job("a", 1.0));
        s.push(job("b", 1.0));
    }
    const std::vector<std::string> order = drain_order(s);
    ASSERT_EQ(order.size(), 18u);
    for (std::size_t i = 0; i < order.size(); i += 3) {
        EXPECT_EQ(order[i], "a") << "round " << i / 3;
        EXPECT_EQ(order[i + 1], "a") << "round " << i / 3;
        EXPECT_EQ(order[i + 2], "b") << "round " << i / 3;
    }
    EXPECT_TRUE(s.empty());
}

TEST(Scheduler, StarvationFree) {
    // A huge backlog for the heavy tenant cannot starve the light one:
    // every backlogged tenant is credited every round.
    service::FairShareScheduler s(1.0);
    s.set_weight("heavy", 8.0);
    for (int i = 0; i < 64; ++i) s.push(job("heavy", 1.0));
    s.push(job("light", 1.0));
    std::vector<std::string> order = drain_order(s);
    const auto light = std::find(order.begin(), order.end(), "light");
    ASSERT_NE(light, order.end());
    // Served within the first round: after at most weight(heavy) pops.
    EXPECT_LE(light - order.begin(), 8);
}

TEST(Scheduler, PriorityOrdersWithinTenant) {
    service::FairShareScheduler s(10.0);
    s.push(job("t", 1.0, /*priority=*/0));
    s.push(job("t", 1.0, /*priority=*/5));
    s.push(job("t", 1.0, /*priority=*/1));
    std::vector<int> prio;
    while (auto j = s.pop()) prio.push_back(j->spec.priority);
    EXPECT_EQ(prio, (std::vector<int>{5, 1, 0}));
}

TEST(Scheduler, TakeMatchingBatchesEqualKeysOnly) {
    service::FairShareScheduler s(10.0);
    s.push(job("t", 1.0));
    s.push(job("t", 1.0));
    s.push(job("t", 1.0, 0, /*n=*/16));  // different key: different grid
    s.push(job("t", 1.0));
    auto head = s.pop();
    ASSERT_TRUE(head.has_value());
    const auto extras =
        s.take_matching("t", head->spec.key(), /*max_extra=*/8);
    EXPECT_EQ(extras.size(), 2u);
    for (const auto& e : extras) EXPECT_EQ(e.spec.key(), head->spec.key());
    // The incompatible job stays queued.
    EXPECT_EQ(s.tenant_depth("t"), 1u);
    EXPECT_EQ(s.pop()->spec.n, 16);
}

TEST(Scheduler, BatchingOverdraftCarriesAcrossEmptyQueue) {
    // take_matching charges batched jobs as overdraft. When the batch
    // drains the tenant's queue, that debt must survive the idle period —
    // a reset-to-zero would let same-key bursts be served for free,
    // defeating the fairness the ledger exists to enforce.
    service::FairShareScheduler s(1.0);  // quantum 1, equal weights
    for (int i = 0; i < 3; ++i) s.push(job("a", 1.0));
    for (int i = 0; i < 8; ++i) s.push(job("b", 1.0));
    auto head = s.pop();
    ASSERT_TRUE(head.has_value());
    ASSERT_EQ(head->spec.tenant, "a");
    // Batch the rest of a's burst: 2 jobs' cost charged, queue emptied.
    EXPECT_EQ(s.take_matching("a", head->spec.key(), 8).size(), 2u);
    EXPECT_EQ(s.tenant_depth("a"), 0u);
    // a refills immediately. It consumed 3 jobs' cost against 1 of credit,
    // so b is owed two compensating rounds before a serves again.
    for (int i = 0; i < 4; ++i) s.push(job("a", 1.0));
    const std::vector<std::string> order = drain_order(s);
    ASSERT_EQ(order.size(), 12u);
    EXPECT_EQ(order[0], "b");
    EXPECT_EQ(order[1], "b");
    EXPECT_EQ(order[2], "a");  // debt repaid; equal-weight alternation
    EXPECT_EQ(std::count(order.begin(), order.end(), "a"), 4);
}

TEST(Scheduler, BackloggedListsTenantsInRotationOrder) {
    service::FairShareScheduler s(1.0);
    s.push(job("x", 1.0));
    s.push(job("y", 1.0));
    EXPECT_EQ(s.backlogged(), (std::vector<std::string>{"x", "y"}));
    (void)s.pop();
    EXPECT_EQ(s.backlogged(), (std::vector<std::string>{"y"}));
}

// ---------------------------------------------------------------- admission

TEST(Admission, RejectsWhenQueueFull) {
    service::AdmissionController ctl(2, service::CostOracle{});
    try {
        (void)ctl.admit(small_spec("t"), /*queued_now=*/2);
        FAIL() << "expected AdmissionError";
    } catch (const service::AdmissionError& e) {
        EXPECT_EQ(e.reason(), service::RejectReason::QueueFull);
    }
}

TEST(Admission, RejectsInfeasibleDeadline) {
    service::AdmissionController ctl(8, service::CostOracle{});
    service::JobSpec spec = small_spec("t");
    spec.deadline_s = 1e-12;  // no machine models this fast
    try {
        (void)ctl.admit(spec, 0);
        FAIL() << "expected AdmissionError";
    } catch (const service::AdmissionError& e) {
        EXPECT_EQ(e.reason(), service::RejectReason::DeadlineInfeasible);
        EXPECT_NE(e.detail().find("deadline"), std::string::npos);
    }
}

TEST(Admission, RejectsBadSpecWithNamedKey) {
    service::AdmissionController ctl(8, service::CostOracle{});
    service::JobSpec spec = small_spec("t");
    spec.impl = "warp_drive";
    try {
        (void)ctl.admit(spec, 0);
        FAIL() << "expected AdmissionError";
    } catch (const service::AdmissionError& e) {
        EXPECT_EQ(e.reason(), service::RejectReason::BadSpec);
        EXPECT_NE(e.detail().find("impl"), std::string::npos);
    }
}

TEST(Admission, AdmitsAndPricesFeasibleJob) {
    service::AdmissionController ctl(8, service::CostOracle{});
    const double cost = ctl.admit(small_spec("t"), 1);
    EXPECT_GT(cost, 0.0);
    EXPECT_TRUE(std::isfinite(cost));
}

TEST(Admission, RejectReasonNamesRoundTrip) {
    using service::RejectReason;
    for (RejectReason r : {RejectReason::QueueFull,
                           RejectReason::DeadlineInfeasible,
                           RejectReason::BadSpec})
        EXPECT_EQ(service::reject_reason_from_name(
                      service::reject_reason_name(r)),
                  r);
    EXPECT_THROW((void)service::reject_reason_from_name("nope"),
                 std::invalid_argument);
}

// ----------------------------------------------------------------- job spec

TEST(JobSpec, JsonRoundTripPreservesEveryField) {
    service::JobSpec spec = small_spec("acme");
    spec.priority = 3;
    spec.deadline_s = 9.5;
    spec.fuse = 2;
    spec.scenario = "periodic";
    spec.chaos = "nic-jitter";
    spec.chaos_x = 123.0;
    spec.chaos_seed = 7;
    spec.return_state = true;
    const service::JobSpec back =
        service::job_from_json(service::job_to_json(spec));
    EXPECT_EQ(back.tenant, spec.tenant);
    EXPECT_EQ(back.priority, spec.priority);
    EXPECT_DOUBLE_EQ(back.deadline_s, spec.deadline_s);
    EXPECT_EQ(back.key(), spec.key());
    EXPECT_EQ(back.return_state, spec.return_state);
}

TEST(JobSpec, UnknownKeyIsNamedInTheError) {
    try {
        (void)service::job_from_json(R"({"tenant":"t","bogus":1})");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    }
}

TEST(JobSpec, MissingTenantIsNamedInTheError) {
    try {
        (void)service::job_from_json(R"({"impl":"single_task"})");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("tenant"), std::string::npos);
    }
}

TEST(JobSpec, WrongTypeIsNamedInTheError) {
    try {
        (void)service::job_from_json(R"({"tenant":"t","steps":"many"})");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("steps"), std::string::npos);
    }
}

TEST(JobSpec, DeeplyNestedValueIsATypedErrorNotACrash) {
    // advectd parses every submit frame (up to 1 MiB) with job_from_json;
    // 40 000 nested arrays (about 80 KB) used to overflow the recursive
    // parser's stack and end the daemon.
    const std::string deep = R"({"tenant":"t","impl":)" +
                             std::string(40000, '[') +
                             std::string(40000, ']') + "}";
    try {
        (void)service::job_from_json(deep, "submit");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("submit:1: nesting deeper than 64 levels"),
                  std::string::npos)
            << what;
    }
    // The bound itself: 64 levels parse, 65 do not.
    const auto nest = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_NO_THROW((void)json::parse(nest(64)));
    EXPECT_THROW((void)json::parse(nest(65)), std::invalid_argument);
}

TEST(JobSpec, SpecsNoLauncherCanLayOutRejectNamingFuse) {
    // Both used to pass validate() and admission, queue, and fail at
    // dispatch: a spec has no box key, so cpu_gpu_* keeps a 1-thick CPU box
    // that a 2-deep fused shell cannot fit in, and rotating-inflow has
    // variable coefficients and open faces, which never fuse.
    service::JobSpec box = small_spec("t");
    box.impl = "cpu_gpu_overlap";
    box.n = 24;
    box.fuse = 2;
    service::JobSpec scen = small_spec("t");
    scen.impl = "single_task";
    scen.n = 16;
    scen.scenario = "rotating-inflow";
    scen.fuse = 2;
    for (service::JobSpec spec : {box, scen}) {
        try {
            spec.validate();
            ADD_FAILURE() << spec.impl << ": expected invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("job: fuse:"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_THROW((void)service::job_from_json(service::job_to_json(spec)),
                     std::invalid_argument);
        spec.fuse = 1;
        EXPECT_NO_THROW(spec.validate()) << spec.impl;
    }
    // A fused Courant-1 job on the default periodic problem is legal.
    service::JobSpec fused = small_spec("t");
    fused.impl = "single_task";
    fused.fuse = 2;
    EXPECT_NO_THROW(fused.validate());
}

TEST(JobSpec, FaultPlanResolution) {
    service::JobSpec spec = small_spec("t");
    EXPECT_FALSE(spec.fault_plan().has_value());

    spec.chaos = "nic-jitter";
    auto plan = spec.fault_plan();
    ASSERT_TRUE(plan.has_value());
    EXPECT_FALSE(plan->rules.empty());
    EXPECT_EQ(plan->seed, spec.chaos_seed);

    spec.chaos = "gameday-nic-burst";
    plan = spec.fault_plan();
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->seed,
              chaos::game_day_by_name("gameday-nic-burst").plan.seed);
}

// ---------------------------------------------------------------------- SLO

TEST(Slo, AggregatesPercentilesAndHitRate) {
    service::SloCollector c;
    c.set_weight("t", 2.0);
    for (int i = 1; i <= 10; ++i) {
        c.on_submitted("t");
        c.on_admitted("t");
        c.on_dispatched("t", 1.0, 1, {"t", "u"}, {0.1 * i});
        // Deadline 1.0: even i land at 0.5 (hit), odd i at 1.5 (miss).
        c.on_completed("t", true, 0.01, 1.0, i % 2 == 0 ? 0.5 : 1.5, 0.8);
    }
    const service::SloReport r = c.report(3.0, "drill");
    ASSERT_EQ(r.tenants.size(), 1u);
    const service::TenantSlo& t = r.tenants[0];
    EXPECT_EQ(t.submitted, 10);
    EXPECT_EQ(t.completed, 10);
    EXPECT_DOUBLE_EQ(t.weight, 2.0);
    // Nearest-rank percentiles of {0.1 .. 1.0}.
    EXPECT_NEAR(t.queue_wait_p50_s, 0.5, 1e-12);
    EXPECT_NEAR(t.queue_wait_p90_s, 0.9, 1e-12);
    EXPECT_NEAR(t.queue_wait_p99_s, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(t.deadline_hit_rate(), 0.5);
    EXPECT_NEAR(t.absorbed_fraction, 0.8, 1e-12);
    // Every dispatch above was contended (two tenants backlogged).
    EXPECT_DOUBLE_EQ(t.contended_cost_s, t.served_cost_s);
    EXPECT_EQ(r.gameday, "drill");
    EXPECT_EQ(r.admitted, 10);
}

TEST(Slo, UncontendedDispatchStaysOutOfTheFairShareLedger) {
    service::SloCollector c;
    c.on_submitted("t");
    c.on_admitted("t");
    c.on_dispatched("t", 2.0, 1, {"t"}, {0.0});  // only tenant backlogged
    c.on_completed("t", true, 0.01, 0.0, 0.02, -1.0);
    const service::SloReport r = c.report(1.0, "");
    ASSERT_EQ(r.tenants.size(), 1u);
    EXPECT_DOUBLE_EQ(r.tenants[0].served_cost_s, 2.0);
    EXPECT_DOUBLE_EQ(r.tenants[0].contended_cost_s, 0.0);
    EXPECT_DOUBLE_EQ(r.tenants[0].absorbed_fraction, -1.0);
}

TEST(Slo, ReportJsonRoundTrips) {
    service::SloCollector c;
    c.set_weight("a", 2.0);
    c.on_submitted("a");
    c.on_admitted("a");
    c.on_dispatched("a", 1.5, 2, {"a", "b"}, {0.25, 0.5});
    c.on_completed("a", true, 0.03, 2.0, 0.6, 0.9);
    c.on_submitted("b");
    c.on_rejected("b", service::RejectReason::QueueFull);
    const service::SloReport r = c.report(4.5, "gameday-nic-burst");
    const service::SloReport back = service::report_from_json(r.to_json());
    EXPECT_EQ(back.gameday, r.gameday);
    EXPECT_DOUBLE_EQ(back.uptime_s, r.uptime_s);
    EXPECT_EQ(back.admitted, r.admitted);
    EXPECT_EQ(back.dispatched_batches, r.dispatched_batches);
    ASSERT_EQ(back.tenants.size(), r.tenants.size());
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
        EXPECT_EQ(back.tenants[i].tenant, r.tenants[i].tenant);
        EXPECT_EQ(back.tenants[i].rejected_queue_full,
                  r.tenants[i].rejected_queue_full);
        EXPECT_DOUBLE_EQ(back.tenants[i].served_cost_s,
                         r.tenants[i].served_cost_s);
    }
    ASSERT_EQ(back.dispatches.size(), r.dispatches.size());
    EXPECT_EQ(back.dispatches[0].tenant, "a");
    EXPECT_EQ(back.dispatches[0].jobs, 2);
    EXPECT_EQ(back.dispatches[0].backlogged,
              (std::vector<std::string>{"a", "b"}));
}

TEST(Slo, BenchTrajectoryDedupesByLabel) {
    const std::string path = "test_service_bench.tmp.json";
    std::remove(path.c_str());
    service::SloCollector c;
    c.on_submitted("t");
    c.on_admitted("t");
    const service::SloReport r = c.report(1.0, "drill");
    service::append_service_bench(r, "labelA", "2026-08-10", path);
    service::append_service_bench(r, "labelA", "2026-08-11", path);
    service::append_service_bench(r, "labelB", "2026-08-10", path);
    const json::Value doc = json::load_file(path);
    const json::Value* entries = doc.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->items.size(), 2u);
    // labelA was replaced in place, keeping its slot and the newer date.
    EXPECT_EQ(entries->items[0].find("label")->str, "labelA");
    EXPECT_EQ(entries->items[0].find("date")->str, "2026-08-11");
    EXPECT_EQ(entries->items[1].find("label")->str, "labelB");
    std::remove(path.c_str());
}

// ------------------------------------------------- committed scenario files

TEST(GameDayCatalog, CommittedFilesPinBitwiseToCatalog) {
    for (const auto& g : chaos::game_day_catalog()) {
        const std::string path =
            std::string(ADVECT_SCENARIO_DIR) + "/" + g.file;
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << "missing committed scenario file " << path
                               << " — regenerate with `advectctl chaos "
                                  "--dump "
                               << g.name << "`";
        std::stringstream ss;
        ss << in.rdbuf();
        EXPECT_EQ(ss.str(), chaos::plan_to_json(g.plan))
            << g.file << " drifted from the in-code catalog";
        // And the file loads back to the identical plan.
        EXPECT_EQ(chaos::plan_to_json(chaos::load_plan_file(path)),
                  chaos::plan_to_json(g.plan));
    }
}

TEST(GameDayCatalog, LookupThrowsWithKnownNames) {
    EXPECT_THROW((void)chaos::game_day_by_name("gameday-nope"),
                 std::out_of_range);
    EXPECT_EQ(chaos::game_day_by_name("gameday-rank-blackout").plan.seed,
              20260811u);
}
