// Temporal blocking must be invisible to the numerics: for every
// implementation of paper §IV and every fuse factor, the fused solver must
// produce exactly the bits of the unfused one (docs/PERF.md "Temporal
// blocking"). The only fused kernel is the single-term register chain,
// which runs each point's level sequence with the same operations in the
// same order as the plain row sweep, so equality here is bitwise, not
// approximate. Cases cover odd box shapes, step counts not divisible by
// the fuse factor (the remainder runs unfused), and step counts smaller
// than the fuse factor (everything runs unfused).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/coefficients.hpp"
#include "core/problem.hpp"
#include "core/rows.hpp"
#include "core/stencil.hpp"
#include "impl/harness.hpp"
#include "impl/registry.hpp"
#include "plan/ir.hpp"

namespace core = advect::core;
namespace impl = advect::impl;
namespace plan = advect::plan;

namespace {

struct FuseCase {
    int n;
    int steps;
    int fuse;
};

impl::SolverConfig base_config(const FuseCase& c) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(c.n);
    cfg.steps = c.steps;
    cfg.threads_per_task = 2;
    cfg.block_x = 4;
    cfg.block_y = 4;
    cfg.fuse = c.fuse;
    return cfg;
}

class FusedImpls : public ::testing::TestWithParam<FuseCase> {};

TEST_P(FusedImpls, EveryImplementationBitwiseMatchesUnfused) {
    const auto c = GetParam();
    for (const auto& entry : impl::registry()) {
        auto cfg = base_config(c);
        cfg.ntasks = entry.uses_mpi ? 2 : 1;
        if (entry.id.rfind("cpu_gpu", 0) == 0) {
            // H/I: the fuse-deep CPU/GPU shells must fit inside the walls,
            // and two walls plus a non-empty GPU block must fit in the box.
            cfg.ntasks = 1;
            cfg.box_thickness = c.fuse;
        }
        auto plain_cfg = cfg;
        plain_cfg.fuse = 1;

        const auto fused = impl::run_plan_solver(entry.id, cfg);
        const auto plain = impl::run_plan_solver(entry.id, plain_cfg);
        EXPECT_TRUE(fused.state.interior_equals(plain.state))
            << entry.id << " diverges from its unfused run at fuse="
            << c.fuse << " steps=" << c.steps << " n=" << c.n;

        // And both must equal the serial reference bit for bit.
        const auto ref = core::run_reference(cfg.problem, cfg.steps);
        EXPECT_TRUE(fused.state.interior_equals(ref))
            << entry.id << " diverges from the reference at fuse=" << c.fuse;
    }
}

INSTANTIATE_TEST_SUITE_P(
    FuseSweep, FusedImpls,
    ::testing::Values(FuseCase{12, 4, 1},   // fuse 1 is the identity plan
                      FuseCase{15, 5, 2},   // odd domain, remainder step
                      FuseCase{15, 5, 3},   // remainder 2
                      FuseCase{12, 4, 4},   // divides evenly, no remainder
                      FuseCase{14, 6, 3},   // even domain, divides evenly
                      FuseCase{12, 3, 4},   // steps < fuse: all remainder
                      FuseCase{13, 7, 2})); // prime domain and step count

// ---------------------------------------------------------------------------
// The register chain over the executor's row path: Courant-1 tensor
// coefficients compact to a single surviving stencil term, and
// apply_stencil_chain_rows advances each run of consecutive rows `fuse`
// steps in one chain call. Whatever the region shapes (whole planes, the
// thin slabs and x-pencils of a boundary shell) and however the rows are
// chunked, it must match the dense 27-term reference arithmetic bit for
// bit, level by level.

TEST(FusedChain, SingleTermPlanMatchesLevelByLevelReference) {
    const int n = 14;
    for (const core::Velocity3 c : {core::Velocity3{1, 1, 1},
                                    core::Velocity3{-1, 1, -1}}) {
        const auto a = core::tensor_product_coeffs(c, 1.0);
        for (int fuse = 2; fuse <= 4; ++fuse) {
            core::Field3 cur({n, n, n}, fuse);
            // Deterministic, varied, finite data everywhere including halos.
            for (int k = -fuse; k < n + fuse; ++k)
                for (int j = -fuse; j < n + fuse; ++j)
                    for (int i = -fuse; i < n + fuse; ++i)
                        cur(i, j, k) = 0.25 + 0.017 * i - 0.003 * j * k +
                                       0.0011 * i * j;
            const core::Field3 in = cur;
            ASSERT_EQ(core::StencilPlan::make(a, in).terms, 1)
                << "Courant-1 coefficients should compact to one term";

            // Level-by-level reference via the scalar reference arithmetic:
            // level s covers expand(interior, fuse - s), the points the
            // final level depends on.
            core::Field3 nxt({n, n, n}, fuse);
            for (int s = 1; s <= fuse; ++s) {
                const int d = fuse - s;
                for (int k = -d; k < n + d; ++k)
                    for (int j = -d; j < n + d; ++j)
                        for (int i = -d; i < n + d; ++i)
                            nxt(i, j, k) = core::stencil_point(a, cur, i, j, k);
                cur.swap(nxt);
            }

            // The interior/boundary split the overlap plans sweep, so runs
            // break at region edges, at plane ends and at chunk edges.
            const core::InteriorBoundary parts =
                core::partition_interior_boundary({n, n, n}, fuse);
            std::vector<core::Range3> regions = parts.boundary;
            regions.push_back(parts.interior);
            const core::RowSpace rows(regions);
            ASSERT_EQ(rows.points(), in.interior().volume());
            core::Field3 out({n, n, n}, fuse);
            for (std::int64_t lo = 0; lo < rows.size();) {
                const std::int64_t hi =
                    std::min<std::int64_t>(rows.size(), lo + 5 + lo % 11);
                core::apply_stencil_chain_rows(a, in, out, rows, lo, hi,
                                               fuse);
                lo = hi;
            }
            for (int k = 0; k < n; ++k)
                for (int j = 0; j < n; ++j)
                    for (int i = 0; i < n; ++i)
                        ASSERT_EQ(out(i, j, k), cur(i, j, k))
                            << "fuse=" << fuse << " at (" << i << "," << j
                            << "," << k << ")";
        }
    }
}

TEST(FusedChain, CourantOneThroughEveryImplementation) {
    // End-to-end on a Courant-1 shift against the flow's other diagonal:
    // every implementation's fused plan must match its unfused run and the
    // serial reference bit for bit.
    const FuseCase c{12, 6, 3};
    for (const auto& entry : impl::registry()) {
        auto cfg = base_config(c);
        cfg.problem.velocity = {-1.0, 1.0, -1.0};  // nu = 1: one live term
        cfg.ntasks = entry.uses_mpi ? 2 : 1;
        if (entry.id.rfind("cpu_gpu", 0) == 0) {
            cfg.ntasks = 1;
            cfg.box_thickness = c.fuse;
        }
        auto plain_cfg = cfg;
        plain_cfg.fuse = 1;
        const auto fused = impl::run_plan_solver(entry.id, cfg);
        const auto plain = impl::run_plan_solver(entry.id, plain_cfg);
        EXPECT_TRUE(fused.state.interior_equals(plain.state))
            << entry.id << " chain path diverges from its unfused run";
        const auto ref = core::run_reference(cfg.problem, cfg.steps);
        EXPECT_TRUE(fused.state.interior_equals(ref))
            << entry.id << " chain path diverges from the reference";
    }
}

// ---------------------------------------------------------------------------
// Geometry rejection: a fuse factor whose deepened halo exceeds a rank's
// local box must fail fast with the typed error, naming the offending rank,
// before any rank thread starts (the same fail-fast contract as infeasible
// box thicknesses).

TEST(FusedGeometry, ThinRankThrowsTypedErrorNamingTheRank) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(6);
    cfg.steps = 2;
    cfg.ntasks = 2;  // 1x1x2 decomposition: local boxes 6x6x3
    cfg.fuse = 4;    // needs min extent >= 4
    try {
        (void)impl::run_plan_solver("mpi_bulk", cfg);
        FAIL() << "expected FuseGeometryError";
    } catch (const plan::FuseGeometryError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
        EXPECT_NE(what.find("fuse factor 4"), std::string::npos) << what;
    }
    cfg.fuse = 3;  // feasible again: 3 <= min extent 3
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    EXPECT_TRUE(
        impl::run_plan_solver("mpi_bulk", cfg).state.interior_equals(ref));
}

TEST(FusedGeometry, SingleTaskThinDomainThrows) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(3);
    cfg.steps = 2;
    cfg.fuse = 4;
    EXPECT_THROW((void)impl::run_plan_solver("single_task", cfg),
                 plan::FuseGeometryError);
    EXPECT_THROW((void)impl::run_plan_solver("gpu_resident", cfg),
                 plan::FuseGeometryError);
}

TEST(FusedGeometry, BoxWallsThinnerThanFuseThrow) {
    // H/I additionally require fuse <= box_thickness: the fuse-deep shells
    // around the GPU block must stay inside the CPU walls.
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(12);
    cfg.steps = 2;
    cfg.block_x = 4;
    cfg.block_y = 4;
    cfg.box_thickness = 1;
    cfg.fuse = 2;
    EXPECT_THROW((void)impl::run_plan_solver("cpu_gpu_bulk", cfg),
                 plan::FuseGeometryError);
    EXPECT_THROW((void)impl::run_plan_solver("cpu_gpu_overlap", cfg),
                 plan::FuseGeometryError);
    cfg.box_thickness = 2;  // feasible again
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    EXPECT_TRUE(impl::run_plan_solver("cpu_gpu_overlap", cfg)
                    .state.interior_equals(ref));
}

}  // namespace
