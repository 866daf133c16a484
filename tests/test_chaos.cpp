// Tests for the chaos engine (docs/CHAOS.md): pure deterministic draws, the
// msg timeout satellite, drop/retransmit correctness, seed replayability
// (identical fault logs, bitwise-identical solutions, identical trace
// shapes), zero-amplitude transparency for all nine implementations, and
// the DES lowering (fault-free step time untouched; overlap ordering).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault.hpp"
#include "chaos/inject.hpp"
#include "chaos/report.hpp"
#include "chaos/scenario.hpp"
#include "chaos/scenario_file.hpp"
#include "core/problem.hpp"
#include "impl/launch.hpp"
#include "impl/harness.hpp"
#include "impl/registry.hpp"
#include "msg/comm.hpp"
#include "sched/node_model.hpp"
#include "trace/span.hpp"

namespace chaos = advect::chaos;
namespace core = advect::core;
namespace impl = advect::impl;
namespace model = advect::model;
namespace msg = advect::msg;
namespace sched = advect::sched;
namespace trace = advect::trace;

namespace {

impl::SolverConfig small_config(int n = 14, int steps = 3) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(n);
    cfg.steps = steps;
    cfg.ntasks = 4;
    cfg.threads_per_task = 2;
    cfg.block_x = 8;
    cfg.block_y = 4;
    return cfg;
}

struct ChaosRun {
    impl::SolveResult result;
    std::vector<chaos::FaultEvent> log;
    std::vector<std::pair<std::string, std::string>> trace_shape;
};

/// Solve under `plan` with tracing on; returns the solution, the sorted
/// fault log, and the sorted (name, category) multiset of recorded spans.
ChaosRun chaos_solve(const impl::Implementation& entry,
                     const impl::SolverConfig& cfg,
                     const chaos::FaultPlan& plan) {
    trace::set_enabled(false);
    trace::reset();
    trace::set_enabled(true);
    ChaosRun run;
    {
        chaos::Session session(plan);
        run.result = impl::run_plan_solver(entry.id, cfg);
        run.log = session.log();
    }
    trace::set_enabled(false);
    for (const auto& s : trace::snapshot())
        run.trace_shape.emplace_back(s.name, s.category);
    std::sort(run.trace_shape.begin(), run.trace_shape.end());
    trace::reset();
    return run;
}

// ---------------------------------------------------------------------------
// The draws are pure and deterministic.

TEST(Draws, DeterministicAndBounded) {
    const auto plan = chaos::nic_jitter(250.0, 1234);
    for (int occ = 0; occ < 50; ++occ) {
        const bool f1 = chaos::draw_fires(plan, 0, 3, 7, "send_x", occ);
        const bool f2 = chaos::draw_fires(plan, 0, 3, 7, "send_x", occ);
        EXPECT_EQ(f1, f2);
        const double a1 = chaos::draw_amount_us(plan, 0, 3, 7, "send_x", occ);
        const double a2 = chaos::draw_amount_us(plan, 0, 3, 7, "send_x", occ);
        EXPECT_EQ(a1, a2);
        EXPECT_GE(a1, 0.0);
        EXPECT_LT(a1, 2 * 250.0);
    }
}

TEST(Draws, SeedAndCoordinateChangeTheStream) {
    const auto plan_a = chaos::nic_jitter(250.0, 1);
    const auto plan_b = chaos::nic_jitter(250.0, 2);
    std::set<double> amounts;
    for (int occ = 0; occ < 16; ++occ) {
        amounts.insert(chaos::draw_amount_us(plan_a, 0, 0, 0, "send_x", occ));
        amounts.insert(chaos::draw_amount_us(plan_b, 0, 0, 0, "send_x", occ));
        amounts.insert(chaos::draw_amount_us(plan_a, 0, 1, 0, "send_x", occ));
        amounts.insert(chaos::draw_amount_us(plan_a, 0, 0, 1, "send_x", occ));
        amounts.insert(chaos::draw_amount_us(plan_a, 0, 0, 0, "send_y", occ));
    }
    // 80 draws from distinct coordinates: collisions are astronomically
    // unlikely, so near-all values must be distinct.
    EXPECT_GT(amounts.size(), 75u);
}

TEST(Draws, ProbabilityEndpointsAreExact) {
    auto plan = chaos::message_drops(1.0, 9);
    for (int occ = 0; occ < 20; ++occ)
        EXPECT_TRUE(chaos::draw_fires(plan, 0, 0, 0, "send_x", occ));
    plan.rules[0].probability = 0.0;
    for (int occ = 0; occ < 20; ++occ)
        EXPECT_FALSE(chaos::draw_fires(plan, 0, 0, 0, "send_x", occ));
}

TEST(Draws, ZeroAmplitudeDrawsExactlyZero) {
    const auto plan = chaos::nic_jitter(0.0, 77);
    for (int occ = 0; occ < 20; ++occ)
        EXPECT_EQ(chaos::draw_amount_us(plan, 0, 0, 0, "send_x", occ), 0.0);
}

TEST(Draws, RuleMatchScopesRankStepSite) {
    chaos::FaultRule r;
    r.site = "send_y";
    r.rank = 2;
    r.step_lo = 1;
    r.step_hi = 3;
    EXPECT_TRUE(chaos::rule_matches(r, 2, 2, "send_y"));
    EXPECT_FALSE(chaos::rule_matches(r, 1, 2, "send_y"));
    EXPECT_FALSE(chaos::rule_matches(r, 2, 0, "send_y"));
    EXPECT_FALSE(chaos::rule_matches(r, 2, 4, "send_y"));
    EXPECT_FALSE(chaos::rule_matches(r, 2, 2, "send_x"));
    r.site.clear();
    r.rank = -1;
    EXPECT_TRUE(chaos::rule_matches(r, 0, 1, "anything"));
}

// ---------------------------------------------------------------------------
// msg timeout satellite: deadlines, the stalled index, timed recv.

TEST(MsgTimeout, WaitThrowsTypedErrorOnSilence) {
    msg::run_ranks(2, [](msg::Communicator& comm) {
        if (comm.rank() != 0) return;  // rank 1 never sends
        std::vector<double> out(1);
        auto req = comm.irecv(1, /*tag=*/0, out);
        try {
            req.wait(/*timeout_seconds=*/0.01);
            FAIL() << "expected TimeoutError";
        } catch (const msg::TimeoutError& e) {
            EXPECT_EQ(e.index(), 0);
        }
    });
}

TEST(MsgTimeout, WaitAllReportsTheStalledRequest) {
    msg::run_ranks(2, [](msg::Communicator& comm) {
        if (comm.rank() == 1) {
            const std::vector<double> payload{3.5};
            comm.isend(0, /*tag=*/0, payload).wait();
            return;  // tag 1 is never sent
        }
        std::vector<double> a(1), b(1);
        msg::Request reqs[] = {comm.irecv(1, 0, a), comm.irecv(1, 1, b)};
        try {
            msg::Request::wait_all(reqs, /*timeout_seconds=*/0.05);
            FAIL() << "expected TimeoutError";
        } catch (const msg::TimeoutError& e) {
            EXPECT_EQ(e.index(), 1);  // which request stalled
            EXPECT_NE(std::string(e.what()).find("request 1"),
                      std::string::npos);
        }
        EXPECT_EQ(a[0], 3.5);
    });
}

TEST(MsgTimeout, TimedCallsSucceedWhenDataArrives) {
    msg::run_ranks(2, [](msg::Communicator& comm) {
        std::vector<double> out(2);
        const std::vector<double> payload{1.0, 2.0};
        if (comm.rank() == 0) {
            comm.isend(1, 7, payload).wait();
            comm.recv(1, 8, out, /*timeout_seconds=*/5.0);
        } else {
            comm.isend(0, 8, payload).wait();
            comm.recv(0, 7, out, /*timeout_seconds=*/5.0);
        }
        EXPECT_EQ(out, payload);
    });
}

// ---------------------------------------------------------------------------
// Runtime injection: correctness is preserved under every scenario.

TEST(Inject, DelaysPreserveTheSolution) {
    const auto cfg = small_config();
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    const auto& entry = impl::find_implementation("mpi_nonblocking");
    const auto run = chaos_solve(entry, cfg, chaos::nic_jitter(300.0, 5));
    EXPECT_GT(run.log.size(), 0u);
    EXPECT_TRUE(run.result.state.interior_equals(ref));
}

TEST(Inject, DropsRecoverThroughRetransmission) {
    const auto cfg = small_config();
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    for (const char* id : {"mpi_bulk", "gpu_mpi_bulk"}) {
        const auto& entry = impl::find_implementation(id);
        const auto run =
            chaos_solve(entry, cfg, chaos::message_drops(0.6, 11));
        std::size_t drops = 0;
        for (const auto& e : run.log)
            if (e.kind == chaos::FaultKind::MsgDrop) ++drops;
        EXPECT_GT(drops, 0u) << id;
        EXPECT_TRUE(run.result.state.interior_equals(ref)) << id;
    }
}

TEST(Inject, FlakyKernelLaunchesAreRetried) {
    const auto cfg = small_config();
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    const auto& entry = impl::find_implementation("gpu_mpi_streams");
    const auto run = chaos_solve(entry, cfg, chaos::gpu_flaky(0.3, 21));
    std::size_t fails = 0;
    for (const auto& e : run.log)
        if (e.kind == chaos::FaultKind::GpuFail) ++fails;
    EXPECT_GT(fails, 0u);
    EXPECT_TRUE(run.result.state.interior_equals(ref));
}

TEST(Inject, StragglerRuleOnlyTouchesItsRank) {
    const auto cfg = small_config();
    const auto& entry = impl::find_implementation("mpi_bulk");
    const auto run =
        chaos_solve(entry, cfg, chaos::straggler_ranks(1, 50.0, 31));
    EXPECT_GT(run.log.size(), 0u);
    for (const auto& e : run.log) EXPECT_EQ(e.rank, 0);
}

// ---------------------------------------------------------------------------
// Replayability: (implementation, config, seed) fully determines the run.

TEST(Replay, SameSeedSameFaultsSameBitsSameTraceShape) {
    const auto cfg = small_config();
    const auto plan = chaos::nic_jitter(200.0, 99);
    const auto& entry = impl::find_implementation("mpi_nonblocking");
    auto a = chaos_solve(entry, cfg, plan);
    auto b = chaos_solve(entry, cfg, plan);
    chaos::sort_log(a.log);
    chaos::sort_log(b.log);
    EXPECT_GT(a.log.size(), 0u);
    EXPECT_EQ(a.log, b.log);  // identical fault logs, field for field
    EXPECT_TRUE(a.result.state.interior_equals(b.result.state));
    EXPECT_EQ(a.trace_shape, b.trace_shape);
}

TEST(Replay, DifferentSeedsDrawDifferentAmounts) {
    const auto cfg = small_config();
    const auto& entry = impl::find_implementation("mpi_nonblocking");
    auto a = chaos_solve(entry, cfg, chaos::nic_jitter(200.0, 1));
    auto b = chaos_solve(entry, cfg, chaos::nic_jitter(200.0, 2));
    chaos::sort_log(a.log);
    chaos::sort_log(b.log);
    ASSERT_GT(a.log.size(), 0u);
    EXPECT_NE(a.log, b.log);
}

// Zero-amplitude chaos must be invisible: every implementation produces the
// bitwise-identical interior it produces with no session installed.
TEST(Replay, ZeroAmplitudePlanIsTransparentForAllNine) {
    const auto cfg = small_config(12, 2);
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    const auto plan = chaos::nic_jitter(0.0, 123);
    ASSERT_FALSE(plan.can_fire());
    for (const auto& entry : impl::registry()) {
        auto c = cfg;
        if (!entry.uses_mpi) c.ntasks = 1;
        const auto run = chaos_solve(entry, c, plan);
        EXPECT_EQ(run.log.size(), 0u) << entry.id;
        EXPECT_TRUE(run.result.state.interior_equals(ref)) << entry.id;
    }
}

// Fused (temporal-blocking) plans run different step schedules — fused
// super-steps plus an unfused remainder — but a zero-amplitude session must
// be exactly as invisible on them: no fired faults, and the bitwise interior
// of the chaos-free fused run, which itself equals the serial reference
// (tests/test_fused_parity.cpp).
TEST(Replay, ZeroAmplitudePlanIsTransparentOnFusedPlans) {
    auto cfg = small_config(12, 5);
    cfg.fuse = 3;  // one fused super-step + a 2-step unfused remainder
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    const auto plan = chaos::nic_jitter(0.0, 123);
    ASSERT_FALSE(plan.can_fire());
    for (const auto& entry : impl::registry()) {
        auto c = cfg;
        if (!entry.uses_mpi) c.ntasks = 1;
        if (entry.id.rfind("cpu_gpu", 0) == 0) {
            c.ntasks = 1;
            c.box_thickness = cfg.fuse;
        }
        const auto run = chaos_solve(entry, c, plan);
        EXPECT_EQ(run.log.size(), 0u) << entry.id;
        EXPECT_TRUE(run.result.state.interior_equals(ref)) << entry.id;
    }
}

// ---------------------------------------------------------------------------
// The DES lowering and the resilience report.

TEST(Model, NullAndZeroAmplitudePlansAgreeExactly) {
    sched::RunConfig cfg;
    cfg.machine = model::MachineSpec::yona();
    cfg.nodes = 4;
    cfg.threads_per_task = 12;
    const auto zero = chaos::nic_jitter(0.0, 17);
    for (const auto code : {sched::Code::B, sched::Code::C, sched::Code::F,
                            sched::Code::I}) {
        const double bare = sched::step_time(code, cfg);
        cfg.faults = &zero;
        const auto p = sched::perturbed_step_time(code, cfg);
        cfg.faults = nullptr;
        EXPECT_EQ(p.step, bare) << sched::code_label(code);
        EXPECT_EQ(p.base_step, bare) << sched::code_label(code);
        EXPECT_EQ(p.injected_per_step, 0.0) << sched::code_label(code);
    }
}

TEST(Model, OverlapAbsorbsJitterBulkDoesNot) {
    sched::RunConfig cfg;
    cfg.machine = model::MachineSpec::yona();
    cfg.nodes = 4;
    cfg.threads_per_task = 12;
    const auto jitter = chaos::nic_jitter(300.0, 42);
    cfg.faults = &jitter;
    const auto bulk = sched::perturbed_step_time(sched::Code::B, cfg);
    const auto nonblocking = sched::perturbed_step_time(sched::Code::C, cfg);
    EXPECT_GT(bulk.injected_per_step, 0.0);
    EXPECT_GT(nonblocking.injected_per_step, 0.0);
    EXPECT_LT(nonblocking.loss_fraction(), bulk.loss_fraction());
    EXPECT_GT(nonblocking.absorbed_fraction(), bulk.absorbed_fraction());
    for (const auto& p : {bulk, nonblocking}) {
        EXPECT_GE(p.absorbed_fraction(), 0.0);
        EXPECT_LE(p.absorbed_fraction(), 1.0);
        EXPECT_GE(p.loss_fraction(), 0.0);
    }
}

TEST(Model, ResilienceSweepCoversTheRequestedCodes) {
    sched::RunConfig cfg;
    cfg.machine = model::MachineSpec::yona();
    cfg.nodes = 2;
    cfg.threads_per_task = 12;
    const sched::Code codes[] = {sched::Code::A, sched::Code::B,
                                 sched::Code::I};
    const double amps[] = {0.0, 200.0};
    const auto curves = chaos::resilience_sweep(
        cfg, codes, amps,
        [](double a) { return chaos::nic_jitter(a, 7); });
    ASSERT_EQ(curves.size(), 3u);
    for (const auto& c : curves) {
        ASSERT_EQ(c.points.size(), 2u);
        EXPECT_GT(c.base_gflops, 0.0);
        EXPECT_EQ(c.points[0].loss, 0.0);  // amplitude 0 injects nothing
    }
}

TEST(Report, TraceAbsorbedFractionFromSyntheticSpans) {
    // One chaos span fully overlapped by work on rank 0; one fully exposed
    // on rank 1 -> average 0.5. Host-lane spans must not count as work.
    std::vector<trace::Span> spans;
    auto add = [&spans](const char* name, const char* cat, trace::Lane lane,
                        double t0, double t1, int rank) {
        trace::Span s;
        s.name = name;
        s.category = cat;
        s.lane = lane;
        s.t0 = t0;
        s.t1 = t1;
        s.rank = rank;
        spans.push_back(std::move(s));
    };
    add("delay:send_x", "chaos", trace::Lane::Nic, 1.0, 2.0, 0);
    add("interior", "plan", trace::Lane::Cpu, 0.0, 3.0, 0);
    add("delay:send_x", "chaos", trace::Lane::Nic, 1.0, 2.0, 1);
    add("step", "impl", trace::Lane::Host, 0.0, 3.0, 1);
    EXPECT_NEAR(chaos::absorbed_fraction(spans), 0.5, 1e-12);
    EXPECT_EQ(chaos::absorbed_fraction({}), 1.0);
}

// The runtime statistic (sweep-line over a real trace) and the DES model
// must tell the same story: the overlapped implementation absorbs jitter
// that the bulk-synchronous one exposes. Exact values differ — the model
// runs Table-II hardware, the runtime a thread-simulated node — so the
// agreement bound is loose, but the ordering must match.
TEST(Report, RuntimeAbsorbedFractionAgreesWithTheModel) {
    const auto jitter = chaos::nic_jitter(400.0, 13);
    const auto runtime_absorbed = [&jitter](const char* id) {
        impl::LaunchOptions opts;
        opts.trace = true;
        opts.fault_plan = &jitter;
        const auto report =
            impl::launch_solver(id, small_config(14, 3), opts);
        EXPECT_GT(report.fault_log.size(), 0u) << id;
        return chaos::absorbed_fraction(report.spans);
    };
    const double rt_bulk = runtime_absorbed("mpi_bulk");
    const double rt_overlap = runtime_absorbed("mpi_nonblocking");

    sched::RunConfig mcfg;
    mcfg.machine = model::MachineSpec::yona();
    mcfg.nodes = 4;
    mcfg.threads_per_task = 12;
    mcfg.faults = &jitter;
    const double md_bulk =
        sched::perturbed_step_time(sched::Code::B, mcfg).absorbed_fraction();
    const double md_overlap =
        sched::perturbed_step_time(sched::Code::C, mcfg).absorbed_fraction();

    for (const double v : {rt_bulk, rt_overlap}) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
    EXPECT_GT(md_overlap, md_bulk);
    EXPECT_GT(rt_overlap, rt_bulk - 0.1);
    EXPECT_NEAR(rt_overlap, md_overlap, 0.5);
    EXPECT_NEAR(rt_bulk, md_bulk, 0.5);
}

// ---------------------------------------------------------------------------
// JSON scenario files (chaos/scenario_file.hpp).

TEST(ScenarioFile, ParsesTheFullSchemaWithDefaults) {
    const auto plan = chaos::plan_from_json(R"({
        "seed": 9,
        "timeout_s": 0.25,
        "rules": [
          { "kind": "msg_drop", "site": "send_x", "rank": 2,
            "step_lo": -1, "step_hi": 4, "probability": 0.5,
            "max_fires": 3 },
          { "kind": "gpu_slow", "amplitude_us": 120.0 }
        ]
      })");
    EXPECT_EQ(plan.seed, 9u);
    EXPECT_EQ(plan.timeout_s, 0.25);
    ASSERT_EQ(plan.rules.size(), 2u);
    const auto& r0 = plan.rules[0];
    EXPECT_EQ(r0.kind, chaos::FaultKind::MsgDrop);
    EXPECT_EQ(r0.site, "send_x");
    EXPECT_EQ(r0.rank, 2);
    EXPECT_EQ(r0.step_lo, -1);
    EXPECT_EQ(r0.step_hi, 4);
    EXPECT_EQ(r0.probability, 0.5);
    EXPECT_EQ(r0.max_fires, 3);
    const auto& r1 = plan.rules[1];
    EXPECT_EQ(r1.kind, chaos::FaultKind::GpuSlow);
    EXPECT_EQ(r1.site, "");
    EXPECT_EQ(r1.rank, -1);
    EXPECT_EQ(r1.step_lo, 0);
    EXPECT_EQ(r1.amplitude_us, 120.0);
    EXPECT_EQ(r1.probability, 1.0);
    EXPECT_EQ(r1.max_fires, -1);
}

TEST(ScenarioFile, RoundTripPreservesTheReplayedFaultLog) {
    const auto cfg = small_config();
    const auto& entry = impl::find_implementation("mpi_nonblocking");
    const auto plan = chaos::nic_jitter(300.0, 5);
    const auto reparsed = chaos::plan_from_json(chaos::plan_to_json(plan));
    auto a = chaos_solve(entry, cfg, plan);
    auto b = chaos_solve(entry, cfg, reparsed);
    chaos::sort_log(a.log);
    chaos::sort_log(b.log);
    ASSERT_GT(a.log.size(), 0u);
    EXPECT_EQ(a.log, b.log);
}

TEST(ScenarioFile, ErrorsNameTheOffendingKey) {
    const auto expect_error = [](const char* text, const char* needle) {
        try {
            (void)chaos::plan_from_json(text, "<t>");
            FAIL() << "expected std::invalid_argument for " << text;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << e.what();
        }
    };
    expect_error(R"({"rules":[{"kind":"msg_delay","probability":1.5}]})",
                 "rules[0].probability");
    expect_error(R"({"rules":[{"kind":"quantum_flip"}]})", "rules[0].kind");
    expect_error(R"({"rules":[{"kind":"msg_drop","wobble":1}]})",
                 "rules[0].wobble");
    expect_error(R"({"rules":[{"site":"send_x"}]})", "rules[0].kind");
    expect_error(R"({"seed":-3,"rules":[]})", "seed");
    expect_error(R"({"bogus":1,"rules":[]})", "bogus");
    expect_error(R"({"seed":1})", "rules");
    expect_error(
        R"({"rules":[{"kind":"msg_drop","step_lo":2,"step_hi":1}]})",
        "rules[0].step_hi");
    expect_error("{", "<t>");
    EXPECT_THROW((void)chaos::load_plan_file("/nonexistent/zzz.json"),
                 std::runtime_error);
}

TEST(Scenario, RegistryRoundTripsAndRejectsUnknown) {
    for (const auto& name : chaos::scenario_names()) {
        const auto plan = chaos::scenario_by_name(name, 100.0, 3);
        EXPECT_FALSE(plan.rules.empty()) << name;
    }
    EXPECT_THROW(chaos::scenario_by_name("nope", 1.0, 0), std::out_of_range);
}

TEST(Log, SortAndFormatAreCanonical) {
    std::vector<chaos::FaultEvent> log;
    chaos::FaultEvent a;
    a.kind = chaos::FaultKind::MsgDelay;
    a.rank = 1;
    a.step = 2;
    a.site = "send_x";
    a.amount_us = 10.0;
    chaos::FaultEvent b = a;
    b.step = 0;
    log.push_back(a);
    log.push_back(b);
    chaos::sort_log(log);
    EXPECT_EQ(log[0].step, 0);
    const auto text = chaos::format_log(log);
    EXPECT_NE(text.find("msg_delay"), std::string::npos);
    EXPECT_NE(text.find("send_x"), std::string::npos);
}

}  // namespace
