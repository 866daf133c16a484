// Integration tests: every implementation of paper §IV must produce exactly
// the same state as the single-threaded reference (the arithmetic per point
// is identical in every code path), and its error against the analytic
// solution must be small and must shrink at the scheme's order as the grid
// refines.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/coeff_cache.hpp"
#include "core/decomposition.hpp"
#include "core/halo.hpp"
#include "core/initial.hpp"
#include "core/problem.hpp"
#include "core/scenario.hpp"
#include "impl/exchange.hpp"
#include "impl/harness.hpp"
#include "impl/plan_executor.hpp"
#include "impl/registry.hpp"
#include "msg/comm.hpp"
#include "omp/thread_team.hpp"
#include "plan/builders.hpp"
#include "verify/mms.hpp"

namespace core = advect::core;
namespace impl = advect::impl;
namespace msg = advect::msg;
namespace plan = advect::plan;

namespace {

impl::SolverConfig base_config(int n, int steps) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(n);
    cfg.steps = steps;
    return cfg;
}

void expect_matches_reference(const impl::SolverConfig& cfg,
                              const impl::SolveResult& result) {
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    EXPECT_TRUE(result.state.interior_equals(ref))
        << "state differs from the single-task reference";
}

// ---------------------------------------------------------------------------
// Per-implementation matrices.

TEST(SingleTask, MatchesReferenceAcrossThreadCounts) {
    for (int threads : {1, 2, 3, 4}) {
        auto cfg = base_config(16, 4);
        cfg.threads_per_task = threads;
        expect_matches_reference(cfg,
                                 impl::run_plan_solver("single_task", cfg));
    }
}

struct MpiCase {
    int n;
    int ntasks;
    int threads;
};

class MpiImpls : public ::testing::TestWithParam<MpiCase> {};

TEST_P(MpiImpls, BulkMatchesReference) {
    const auto c = GetParam();
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = c.threads;
    expect_matches_reference(cfg, impl::run_plan_solver("mpi_bulk", cfg));
}

TEST_P(MpiImpls, NonblockingMatchesReference) {
    const auto c = GetParam();
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = c.threads;
    expect_matches_reference(cfg,
                             impl::run_plan_solver("mpi_nonblocking", cfg));
}

TEST_P(MpiImpls, ThreadOverlapMatchesReference) {
    const auto c = GetParam();
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = c.threads;
    expect_matches_reference(cfg,
                             impl::run_plan_solver("mpi_thread_overlap", cfg));
}

INSTANTIATE_TEST_SUITE_P(
    DecompositionSweep, MpiImpls,
    ::testing::Values(MpiCase{12, 1, 2},   // self-neighbour in every dim
                      MpiCase{12, 2, 2},   // single cut
                      MpiCase{12, 3, 1},   // prime task count
                      MpiCase{12, 4, 2},   // two cuts
                      MpiCase{16, 8, 1},   // cubic 2x2x2
                      MpiCase{16, 6, 2},   // mixed factors
                      MpiCase{18, 27, 1},  // cubic 3x3x3, divisor of 18
                      MpiCase{15, 5, 3})); // prime, odd domain

struct GpuCase {
    int n;
    int ntasks;
    int bx, by;
    bool c1060;
    int tasks_per_gpu;
};

class GpuImpls : public ::testing::TestWithParam<GpuCase> {};

impl::SolverConfig gpu_config(const GpuCase& c) {
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = 2;
    cfg.block_x = c.bx;
    cfg.block_y = c.by;
    cfg.gpu_props = c.c1060 ? advect::gpu::DeviceProps::tesla_c1060()
                            : advect::gpu::DeviceProps::tesla_c2050();
    cfg.tasks_per_gpu = c.tasks_per_gpu;
    return cfg;
}

TEST_P(GpuImpls, ResidentMatchesReference) {
    // §IV-E is a one-rank job whatever ntasks asks for: plan_job lays it out
    // on one rank that owns a device of its own.
    const auto cfg = gpu_config(GetParam());
    expect_matches_reference(cfg, impl::run_plan_solver("gpu_resident", cfg));
}

TEST_P(GpuImpls, MpiBulkMatchesReference) {
    const auto cfg = gpu_config(GetParam());
    expect_matches_reference(cfg, impl::run_plan_solver("gpu_mpi_bulk", cfg));
}

TEST_P(GpuImpls, MpiStreamsMatchesReference) {
    const auto cfg = gpu_config(GetParam());
    expect_matches_reference(cfg,
                             impl::run_plan_solver("gpu_mpi_streams", cfg));
}

INSTANTIATE_TEST_SUITE_P(
    GpuSweep, GpuImpls,
    ::testing::Values(GpuCase{12, 1, 4, 4, false, 1},
                      GpuCase{12, 1, 32, 8, false, 1},  // blocks wider than domain
                      GpuCase{12, 2, 4, 2, false, 1},
                      GpuCase{12, 4, 4, 4, false, 2},   // shared device
                      GpuCase{16, 8, 8, 4, true, 4},    // C1060, 2 devices
                      GpuCase{15, 3, 4, 4, true, 1}));

struct BoxCase {
    int n;
    int ntasks;
    int thickness;
};

class CpuGpuImpls : public ::testing::TestWithParam<BoxCase> {};

TEST_P(CpuGpuImpls, BulkMatchesReference) {
    const auto c = GetParam();
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = 2;
    cfg.block_x = 4;
    cfg.block_y = 4;
    cfg.box_thickness = c.thickness;
    expect_matches_reference(cfg, impl::run_plan_solver("cpu_gpu_bulk", cfg));
}

TEST_P(CpuGpuImpls, OverlapMatchesReference) {
    const auto c = GetParam();
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = 2;
    cfg.block_x = 4;
    cfg.block_y = 4;
    cfg.box_thickness = c.thickness;
    expect_matches_reference(cfg,
                             impl::run_plan_solver("cpu_gpu_overlap", cfg));
}

INSTANTIATE_TEST_SUITE_P(BoxSweep, CpuGpuImpls,
                         ::testing::Values(BoxCase{12, 1, 1},  // veneer box
                                           BoxCase{12, 1, 3},
                                           BoxCase{14, 2, 2},
                                           BoxCase{16, 4, 1},
                                           BoxCase{18, 8, 2},
                                           BoxCase{15, 3, 1}));

TEST(CpuGpuImpls, InfeasibleBoxThrowsInsteadOfDeadlocking) {
    // A box too thick for the smallest subdomain must fail fast on the
    // calling thread, not strand the other ranks in the exchange.
    auto cfg = base_config(14, 2);
    cfg.ntasks = 3;  // 1x1x3 decomposition: z extents 5, 5, 4
    cfg.box_thickness = 2;
    EXPECT_THROW((void)impl::run_plan_solver("cpu_gpu_bulk", cfg),
                 std::invalid_argument);
    EXPECT_THROW((void)impl::run_plan_solver("cpu_gpu_overlap", cfg),
                 std::invalid_argument);
    cfg.box_thickness = 1;  // feasible again
    expect_matches_reference(cfg,
                             impl::run_plan_solver("cpu_gpu_overlap", cfg));
}

// ---------------------------------------------------------------------------
// Registry-level checks.

TEST(Registry, HasNineImplementationsInPaperOrder) {
    const auto reg = impl::registry();
    ASSERT_EQ(reg.size(), 9u);
    EXPECT_EQ(reg[0].paper_section, "IV-A");
    EXPECT_EQ(reg[8].paper_section, "IV-I");
    EXPECT_EQ(impl::find_implementation("cpu_gpu_overlap").paper_section,
              "IV-I");
    EXPECT_THROW((void)impl::find_implementation("nope"), std::out_of_range);
}

TEST(Registry, EveryImplementationRunsAndMatchesReference) {
    auto cfg = base_config(12, 3);
    cfg.ntasks = 2;
    cfg.threads_per_task = 2;
    cfg.block_x = 4;
    cfg.block_y = 4;
    cfg.box_thickness = 1;
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    for (const auto& entry : impl::registry()) {
        auto c = cfg;
        if (!entry.uses_mpi) c.ntasks = 1;
        const auto result = impl::run_plan_solver(entry.id, c);
        EXPECT_TRUE(result.state.interior_equals(ref)) << entry.id;
        EXPECT_GT(result.wall_seconds, 0.0) << entry.id;
    }
}

// ---------------------------------------------------------------------------
// Job layout: plan_job decomposes a job and builds every rank's plan once,
// on the calling thread, so a bad job throws before any rank starts.

TEST(PlanJob, ImplementationsWithoutMpiAreOneRankJobs) {
    auto cfg = base_config(12, 2);
    cfg.ntasks = 4;
    cfg.block_x = 4;
    cfg.block_y = 4;
    cfg.box_thickness = 1;
    for (const auto& entry : impl::registry()) {
        const impl::PlanJob job = impl::plan_job(entry.id, cfg);
        const int nranks = entry.uses_mpi ? cfg.ntasks : 1;
        EXPECT_EQ(job.decomp.nranks(), nranks) << entry.id;
        ASSERT_EQ(job.plans.size(), static_cast<std::size_t>(nranks))
            << entry.id;
        for (const auto& p : job.plans) {
            EXPECT_EQ(p.impl_id, entry.id);
            EXPECT_EQ(p.uses_comm, entry.uses_mpi) << entry.id;
            EXPECT_EQ(p.uses_gpu, entry.uses_gpu) << entry.id;
        }
        // A one-rank job's only plan covers the whole domain.
        if (!entry.uses_mpi) {
            EXPECT_EQ(job.plans[0].local, cfg.problem.domain.extents())
                << entry.id;
        }
    }
}

TEST(PlanJob, EachRankPlanCoversItsOwnBoxAndOpenFaces) {
    auto cfg = base_config(12, 2);
    cfg.problem.scenario = core::scenario_by_name("open-box");
    cfg.ntasks = 2;  // 1x1x2: rank 0 owns the low z half, rank 1 the high
    const impl::PlanJob job = impl::plan_job("mpi_nonblocking", cfg);
    ASSERT_EQ(job.plans.size(), 2u);
    const unsigned xy = (1u << core::kFaceXLo) | (1u << core::kFaceXHi) |
                        (1u << core::kFaceYLo) | (1u << core::kFaceYHi);
    EXPECT_EQ(job.plans[0].open_faces, xy | (1u << core::kFaceZLo));
    EXPECT_EQ(job.plans[1].open_faces, xy | (1u << core::kFaceZHi));
    for (int r = 0; r < 2; ++r) {
        const auto& p = job.plans[static_cast<std::size_t>(r)];
        EXPECT_EQ(p.local, job.decomp.local_extents(r)) << "rank " << r;
        EXPECT_EQ(p.local.nz, 6) << "rank " << r;
    }
}

TEST(PlanJob, InvalidScenarioThrowsBeforeAnyRankStarts) {
    auto cfg = base_config(12, 2);
    // An inflow face opposite a periodic one leaves dimension 1 unpaired.
    cfg.problem.scenario.faces[core::kFaceYLo] = core::BoundaryKind::Inflow;
    for (const char* id : {"single_task", "mpi_bulk", "gpu_resident"}) {
        try {
            (void)impl::plan_job(id, cfg);
            FAIL() << id << ": expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("invalid scenario"), std::string::npos)
                << id << ": " << what;
        }
    }
}

TEST(PlanJob, FuseGeometryErrorNamesTheThinRank) {
    auto cfg = base_config(7, 2);
    cfg.ntasks = 2;  // 1x1x2: z extents 4 (rank 0) and 3 (rank 1)
    cfg.fuse = 4;    // fits rank 0's box, not rank 1's
    try {
        (void)impl::plan_job("mpi_bulk", cfg);
        FAIL() << "expected FuseGeometryError";
    } catch (const plan::FuseGeometryError& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("rank 1: ", 0), 0u) << what;
    }
    // The same job as a one-rank layout keeps the whole 7^3 box.
    EXPECT_EQ(impl::plan_job("single_task", cfg).plans[0].fuse, 4);
}

// Fusing is legal only where the single-term register chain runs: a
// periodic, constant-coefficient, source-free problem whose coefficients
// compact to one live term. plan_job decides that once per job, before any
// rank starts, and names the reason it refuses.
TEST(PlanJob, FuseIsLegalOnlyOnSingleTermPeriodicSourceFreeJobs) {
    const auto scenario_problem = [](const char* name) {
        auto p = core::AdvectionProblem::standard(12);
        p.scenario = core::scenario_by_name(name);
        if (!p.constant_coefficients())
            p.nu = 0.5 / p.velocity_field().max_abs();
        return p;
    };
    auto dense = core::AdvectionProblem::standard(12);
    dense.velocity = {1.0, 0.5, 0.25};
    dense.nu = 0.4;
    const struct {
        core::AdvectionProblem problem;
        const char* reason;
    } refused[] = {
        {dense, "live terms"},
        {advect::verify::mms_mixed_problem(12, 0.5), "source"},
        {scenario_problem("inflow-x"), "periodic"},
        {scenario_problem("rotating-inflow"), "constant coefficients"},
    };
    for (const auto& c : refused)
        for (const char* id : {"single_task", "mpi_bulk", "gpu_resident"}) {
            auto cfg = base_config(12, 4);
            cfg.problem = c.problem;
            cfg.ntasks = 2;
            cfg.fuse = 2;
            try {
                (void)impl::plan_job(id, cfg);
                ADD_FAILURE() << id << ": expected FuseGeometryError ("
                              << c.reason << ")";
            } catch (const plan::FuseGeometryError& e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("fuse factor 2"), std::string::npos)
                    << what;
                EXPECT_NE(what.find(c.reason), std::string::npos)
                    << id << ": " << what;
            }
            cfg.fuse = 1;
            EXPECT_NO_THROW((void)impl::plan_job(id, cfg)) << id;
        }

    // The paper's standard(n) problem is Courant 1: every implementation
    // lays it out fused.
    for (const auto& entry : impl::registry()) {
        auto cfg = base_config(12, 4);
        cfg.ntasks = 2;
        cfg.fuse = 2;
        cfg.box_thickness = 2;  // §IV-H/I: fuse-deep shells inside the walls
        const impl::PlanJob job = impl::plan_job(entry.id, cfg);
        for (const auto& p : job.plans) EXPECT_EQ(p.fuse, 2) << entry.id;
    }
}

// ---------------------------------------------------------------------------
// Step 3 moves no data: the executor runs each plan's Copy task as a flip of
// the host field pair, so a step hands `cur` the buffer `nxt` held.

void expect_step_three_flips(const std::string& id, msg::Communicator* comm) {
    const auto problem = core::AdvectionProblem::standard(12);
    const auto n = problem.domain.extents();
    const plan::StepPlan p = plan::build_step_plan(id, {n});
    const auto coeffs = problem.coeffs();
    core::Field3 cur(n, p.fuse);
    core::Field3 nxt(n, p.fuse);
    core::fill_initial(cur, problem.domain, problem.wave);
    advect::omp::ThreadTeam team(2);
    impl::HaloExchange exchange(core::make_decomposition(n, 1), 0, p.fuse);

    impl::ExecContext ctx;
    ctx.coeffs = &coeffs;
    ctx.cur = &cur;
    ctx.nxt = &nxt;
    ctx.team = &team;
    ctx.comm = comm;
    ctx.exchange = &exchange;
    impl::PlanExecutor exec(p, ctx);

    const double* original = cur.raw().data();
    const double* other = nxt.raw().data();
    exec.run_step();
    EXPECT_EQ(cur.raw().data(), other) << id;
    EXPECT_EQ(nxt.raw().data(), original) << id;
    exec.run_step();
    EXPECT_EQ(cur.raw().data(), original) << id;
    EXPECT_TRUE(cur.interior_equals(core::run_reference(problem, 2))) << id;
}

TEST(StepThree, HostIssueFlipsTheFieldPair) {
    expect_step_three_flips("single_task", nullptr);
}

TEST(StepThree, TeamStagesFlipsTheFieldPair) {
    // One rank: the master exchange wraps every face onto itself.
    msg::run_ranks(1, [](msg::Communicator& comm) {
        expect_step_three_flips("mpi_thread_overlap", &comm);
    });
}

// ---------------------------------------------------------------------------
// Step 1 is a row epilogue: the unfused periodic single_task sweep writes
// every finished row's periodic images into nxt's halo, so after each flip
// cur's whole halo is already current and HaloFill fills only the first
// step's stale halo. Both fields' halos start as NaN: an image the epilogue
// misses stays NaN.

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// `halo` > 1 is the fuse-1 remainder plan of a fused solve, which steps
/// fields whose halos are fuse deep.
void expect_step_one_epilogue(const core::AdvectionProblem& problem,
                              int halo, int threads) {
    const auto n = problem.domain.extents();
    const bool var = !problem.constant_coefficients();
    const plan::StepPlan p =
        plan::build_step_plan("single_task", {n, 1, /*fuse=*/1, 0, var});
    const auto coeffs = problem.coeffs();
    const core::SourceField sf = core::make_source_field(problem);
    core::CoeffCache cache;
    if (var) cache = core::CoeffCache(problem.coeff_field(), n, {0, 0, 0});
    constexpr double kPoison = std::numeric_limits<double>::quiet_NaN();
    core::Field3 cur(n, halo, kPoison);
    core::Field3 nxt(n, halo, kPoison);
    core::fill_initial(cur, problem.domain, problem.wave);
    advect::omp::ThreadTeam team(threads);
    int level = 0;

    impl::ExecContext ctx;
    ctx.coeffs = &coeffs;
    ctx.cur = &cur;
    ctx.nxt = &nxt;
    ctx.team = &team;
    ctx.source = &sf;
    ctx.time_level = &level;
    ctx.coeff_cache = &cache;
    impl::PlanExecutor exec(p, ctx);

    for (int step = 0; step < 3; ++step) {
        exec.run_step();
        ++level;
        SCOPED_TRACE(::testing::Message()
                     << "halo=" << halo << " threads=" << threads
                     << " source=" << sf.active() << " var=" << var
                     << " level=" << level);
        ASSERT_TRUE(cur.interior_equals(core::run_reference(problem, level)));
        core::Field3 want = cur;
        core::fill_periodic_halo(want);
        for (int k = -halo; k < n.nz + halo; ++k)
            for (int j = -halo; j < n.ny + halo; ++j)
                for (int i = -halo; i < n.nx + halo; ++i)
                    ASSERT_TRUE(same_bits(cur(i, j, k), want(i, j, k)))
                        << "(" << i << "," << j << "," << k << ")";
    }
}

TEST(StepOne, EveryStepLeavesCurrentPeriodicImagesInCur) {
    for (const int halo : {1, 3})
        for (const int threads : {1, 3})
            for (const bool source : {false, true}) {
                auto problem = core::AdvectionProblem::standard(10);
                if (source) problem.source.amp = 1.0;
                expect_step_one_epilogue(problem, halo, threads);
            }
}

TEST(StepOne, VariableCoefficientRowsWrapToo) {
    // The rotating scenario is periodic, so its variable-coefficient rows
    // take the same epilogue (var x fuse is rejected, so halo 1 only).
    auto problem = core::AdvectionProblem::standard(10);
    problem.scenario = core::scenario_by_name("rotating");
    problem.nu = 0.5 / problem.velocity_field().max_abs();
    for (const int threads : {1, 3})
        expect_step_one_epilogue(problem, 1, threads);
}

// ---------------------------------------------------------------------------
// Convergence: the scheme is O(delta^2) for fixed simulated time (§II).

TEST(Convergence, SecondOrderInSpaceAtFixedTime) {
    // Run nu at half the stability limit so the spatial error dominates, and
    // integrate to the same simulated time on two grids.
    double errors[2];
    const int grids[2] = {16, 32};
    for (int g = 0; g < 2; ++g) {
        auto p = core::AdvectionProblem::standard(grids[g]);
        p.nu = 0.5;
        const int steps = 2 * grids[g] / 16;  // same simulated time
        const auto state = core::run_reference(p, steps);
        errors[g] = core::error_vs_analytic(p, state, steps).l2;
    }
    EXPECT_LT(errors[1], errors[0]);
    const double order = std::log2(errors[0] / errors[1]);
    EXPECT_GT(order, 1.6) << "expected ~2nd order, got " << order;
}

TEST(Convergence, UnitCourantShiftsExactly) {
    // At the maximum stable nu with c=(1,1,1) the scheme is an exact shift;
    // after n steps the wave returns to its starting position exactly.
    auto p = core::AdvectionProblem::standard(12);
    const auto state = core::run_reference(p, 12);
    core::Field3 init(p.domain.extents());
    core::fill_initial(init, p.domain, p.wave);
    EXPECT_TRUE(state.interior_equals(init));
}

}  // namespace
