/// \file test_verify.cpp
/// Unit tests for the verification subsystem (docs/VERIFICATION.md): the
/// manufactured-source field's bitwise contract, cross-implementation
/// parity with the source active (every execution path adds the same Q at
/// the same level), schedule-exploration determinism, the fuzz sampler's
/// reproducibility, and the standalone-reproducer format.

#include <gtest/gtest.h>

#include <cmath>

#include "core/problem.hpp"
#include "core/source.hpp"
#include "impl/harness.hpp"
#include "impl/registry.hpp"
#include "verify/fuzz.hpp"
#include "verify/mms.hpp"
#include "verify/schedule.hpp"

namespace core = advect::core;
namespace impl = advect::impl;
namespace verify = advect::verify;

namespace {

// ---------------------------------------------------------------------------
// The source field's bitwise contract.

core::SourceField test_source_field(int n) {
    core::AdvectionProblem p = verify::mms_problem(n);
    return core::make_source_field(p);
}

// Q must be bitwise-periodic in the global index: a point's periodic image
// evaluates the source at a wrapped index, and the owning rank evaluates it
// at the in-range index. sin/cos are not bitwise periodic in floating
// point, so the field wraps indices before forming coordinates.
TEST(SourceField, BitwisePeriodicInGlobalIndex) {
    const auto sf = test_source_field(12);
    for (int level : {1, 3, 7}) {
        for (int g = -12; g < 24; ++g) {
            const int wrapped = ((g % 12) + 12) % 12;
            EXPECT_EQ(sf.q(g, 5, 7, level), sf.q(wrapped, 5, 7, level));
            EXPECT_EQ(sf.q(3, g, 7, level), sf.q(3, wrapped, 7, level));
            EXPECT_EQ(sf.q(3, 5, g, level), sf.q(3, 5, wrapped, level));
        }
    }
}

TEST(SourceField, InactiveByDefault) {
    const core::AdvectionProblem p = core::AdvectionProblem::standard(8);
    EXPECT_FALSE(p.source.active());
    EXPECT_FALSE(core::make_source_field(p).active());
}

// The per-step increment matches the second-order expansion
// Q = dt*S + dt^2/2 * (S_t - c . grad S) of the forced equation.
TEST(SourceField, IncrementMatchesSecondOrderExpansion) {
    const auto sf = test_source_field(16);
    const auto& term = sf.term;
    const double d = sf.delta;
    const double dt = sf.dt;
    const int gi = 5, gj = 9, gk = 2, level = 3;
    const double x = gi * d, y = gj * d, z = gk * d, t = level * dt;
    const double kTwoPi = 8.0 * std::atan(1.0);
    const double phi = kTwoPi * (term.kx * x + term.ky * y + term.kz * z);
    const double kappa =
        kTwoPi * (term.kx * sf.vel.base.cx + term.ky * sf.vel.base.cy +
                  term.kz * sf.vel.base.cz);
    const double s =
        term.amp * (term.omega * std::cos(term.omega * t) * std::cos(phi) -
                    kappa * std::sin(term.omega * t) * std::sin(phi));
    const double sdot = term.amp * std::sin(term.omega * t) * std::cos(phi) *
                        (kappa * kappa - term.omega * term.omega);
    const double expected = dt * s + 0.5 * dt * dt * sdot;
    EXPECT_NEAR(sf.q(gi, gj, gk, level), expected, 1e-15);
}

// ---------------------------------------------------------------------------
// Cross-implementation parity with the source active: the manufactured
// increment is added identically on every execution path — host row
// epilogues, TeamStages drains, and the GPU kernels. A source never fuses
// (impl::plan_job), so this runs at fuse 1.

TEST(MmsParity, AllImplementationsMatchReferenceWithSource) {
    impl::SolverConfig cfg;
    cfg.problem = verify::mms_mixed_problem(16, 0.6);
    cfg.steps = 5;
    cfg.ntasks = 2;
    cfg.threads_per_task = 2;
    const auto reference = core::run_reference(cfg.problem, cfg.steps);
    for (const auto& im : impl::registry()) {
        const auto r = impl::run_plan_solver(im.id, cfg);
        EXPECT_TRUE(r.state.interior_equals(reference))
            << im.id << " diverges from reference with the source active";
    }
}

// Pure manufactured mode has a known exact solution; the error must be
// small and must be the discretisation's, not the source hook's.
TEST(MmsNorms, PureManufacturedErrorIsSmallAndShrinks) {
    impl::SolverConfig cfg;
    cfg.problem = verify::mms_problem(16);
    cfg.steps = 8;
    const auto coarse = impl::run_plan_solver("single_task", cfg);
    EXPECT_GT(coarse.error.l2, 1e-12);  // a real discretisation error
    EXPECT_LT(coarse.error.l2, 0.5);

    cfg.problem = verify::mms_problem(32);
    cfg.steps = 16;
    const auto fine = impl::run_plan_solver("single_task", cfg);
    EXPECT_LT(fine.error.l2, 0.5 * coarse.error.l2);
}

// ---------------------------------------------------------------------------
// Schedule exploration: permuted ready-task issue order cannot change the
// executed state.

TEST(ScheduleExploration, HostIssueImplementationsAreOrderInvariant) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(14);
    cfg.steps = 4;
    cfg.ntasks = 3;
    cfg.threads_per_task = 2;
    const std::vector<unsigned> seeds{1u, 42u, 0xdeadbeefu, 7u};
    for (const char* id : {"mpi_bulk", "mpi_nonblocking", "cpu_gpu_bulk",
                           "cpu_gpu_overlap"}) {
        const auto report = verify::explore_schedules(id, cfg, seeds);
        EXPECT_EQ(report.seeds_run, 4);
        EXPECT_TRUE(report.ok())
            << id << ": " << report.divergent.size()
            << " permuted schedules diverged";
    }
}

TEST(ScheduleExploration, FusedPlansAreOrderInvariantToo) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(14);
    cfg.steps = 4;
    cfg.ntasks = 2;
    cfg.threads_per_task = 2;
    cfg.fuse = 2;
    const auto report =
        verify::explore_schedules("mpi_nonblocking", cfg, {3u, 11u});
    EXPECT_TRUE(report.ok());
}

// ---------------------------------------------------------------------------
// The fuzz sampler and reproducer.

TEST(FuzzSampler, DeterministicAndSeedSensitive) {
    const auto a = verify::sample_case(123);
    const auto b = verify::sample_case(123);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.ntasks, b.ntasks);
    EXPECT_EQ(a.fuse, b.fuse);
    EXPECT_EQ(a.velocity.cx, b.velocity.cx);
    EXPECT_EQ(a.chaos_scenario, b.chaos_scenario);
    EXPECT_EQ(a.schedule_seed, b.schedule_seed);

    // Adjacent seeds must decorrelate (the sampler avalanches the seed, so
    // neighbouring corpus entries do not share most fields).
    int differing = 0;
    const auto c = verify::sample_case(124);
    differing += a.n != c.n;
    differing += a.steps != c.steps;
    differing += a.ntasks != c.ntasks;
    differing += a.velocity.cx != c.velocity.cx;
    differing += a.schedule_seed != c.schedule_seed;
    EXPECT_GE(differing, 2);
}

TEST(FuzzSampler, SampledCasesAreBounded) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        const auto c = verify::sample_case(seed);
        EXPECT_GE(c.n, 10);
        EXPECT_LE(c.n, 18);
        EXPECT_GE(c.fuse, 1);
        EXPECT_LE(c.fuse, 4);
        EXPECT_GE(c.ntasks, 1);
        EXPECT_LE(c.ntasks, 6);
        EXPECT_LE(c.tasks_per_gpu, c.ntasks);
        if (c.socket) EXPECT_EQ(c.tasks_per_gpu, 1);
        if (c.courant_one) {
            EXPECT_EQ(c.nu_fraction, 1.0);
            EXPECT_FALSE(c.mms);
        }
        EXPECT_GE(c.nu_fraction, 0.3);
        EXPECT_LE(c.nu_fraction, 1.0);
        // Only Courant-1 cases fuse (the register chain is the only fused
        // kernel), and Courant-1 cases stay on the scenario default so the
        // max-principle oracle keeps its exact-shift premise.
        if (!c.courant_one) {
            EXPECT_EQ(c.fuse, 1);
        }
        if (c.vel_kind != core::VelocityKind::Constant) {
            EXPECT_GT(c.vel_amplitude, 0.0);
        }
        if (c.courant_one) {
            EXPECT_EQ(c.vel_kind, core::VelocityKind::Constant);
            EXPECT_EQ(c.boundary, verify::FuzzBoundary::Periodic);
        }
    }
}

// The sampler must actually reach the scenario space: across a seed sweep
// both variable-velocity kinds and every boundary policy occur, and the
// register chain still gets fused Courant-1 cases.
TEST(FuzzSampler, ScenarioSpaceIsReached) {
    int sbr = 0, deform = 0, inflow = 0, open_box = 0, outflow = 0;
    int var_socket = 0, courant1_fused = 0;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
        const auto c = verify::sample_case(seed);
        sbr += c.vel_kind == core::VelocityKind::SolidBodyRotation;
        deform += c.vel_kind == core::VelocityKind::Deformational;
        inflow += c.boundary == verify::FuzzBoundary::InflowX;
        open_box += c.boundary == verify::FuzzBoundary::OpenBox;
        outflow += c.boundary == verify::FuzzBoundary::OutflowX;
        var_socket +=
            c.vel_kind != core::VelocityKind::Constant && c.socket;
        courant1_fused += c.courant_one && c.fuse > 1;
    }
    EXPECT_GT(sbr, 0);
    EXPECT_GT(deform, 0);
    EXPECT_GT(inflow, 0);
    EXPECT_GT(open_box, 0);
    EXPECT_GT(outflow, 0);
    EXPECT_GT(var_socket, 0);
    EXPECT_GT(courant1_fused, 0);
}

TEST(FuzzReproducer, SingleLineStandaloneFormat) {
    const auto c = verify::sample_case(42);
    EXPECT_EQ(verify::reproducer(c), "advectctl verify fuzz --seed 42");
    EXPECT_EQ(verify::describe(c).find('\n'), std::string::npos);
}

// One full fuzz case end-to-end (inproc only; socket cases fork, which the
// corpus-driven test covers outside the sanitizer jobs).
TEST(FuzzRun, OneInprocCaseRunsAllOracles) {
    // Find a seed whose case needs no fork (no socket leg).
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        auto c = verify::sample_case(seed);
        if (c.socket || !c.chaos_scenario.empty()) continue;
        const auto out = verify::run_case(c);
        EXPECT_GE(out.checks, 5) << verify::describe(c);
        EXPECT_TRUE(out.ok()) << verify::reproducer(c);
        return;
    }
    FAIL() << "no fork-free seed in the first 32";
}

}  // namespace
