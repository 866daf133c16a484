/// \file test_boundary_parity.cpp
/// The scenario refactor's bitwise contracts (docs/SCENARIOS.md):
///
///  1. The periodic constant-velocity default is pinned to the pre-refactor
///     state: FNV-1a checksums of the final interior, captured from the seed
///     tree before the scenario seam existed, must keep reproducing for all
///     nine implementations at fuse {1, 4}, and with the manufactured
///     source at fuse 1 (a source never fuses: the same jobs at fuse 4 must
///     throw the typed FuseGeometryError). A refactor that perturbs one bit
///     of the default path fails loudly here.
///  2. Open boundaries and variable coefficients stay bitwise
///     implementation-invariant: every implementation (and the socket
///     transport, covered by the fuzz corpus) produces the identical state.
///     Neither fuses: every implementation rejects them at fuse > 1.
///  3. The variable-coefficient path is pinned the same way as contract 1:
///     all nine implementations x {solid-body rotation, deformational, the
///     rotating-inflow scenario}, captured before the variable sweep moved
///     onto the vector row kernel. "Matches run_reference" alone cannot see
///     a drift that the reference and the implementations share.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/problem.hpp"
#include "impl/harness.hpp"
#include "impl/registry.hpp"
#include "plan/builders.hpp"
#include "verify/mms.hpp"

namespace core = advect::core;
namespace impl = advect::impl;

namespace {

/// FNV-1a over the raw bit patterns of the interior, in (k, j, i) order.
std::uint64_t interior_hash(const core::Field3& f) {
    std::uint64_t h = 1469598103934665603ull;
    const auto n = f.extents();
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) {
                std::uint64_t bits;
                const double v = f(i, j, k);
                static_assert(sizeof bits == sizeof v);
                __builtin_memcpy(&bits, &v, sizeof bits);
                for (int b = 0; b < 8; ++b) {
                    h ^= (bits >> (8 * b)) & 0xffu;
                    h *= 1099511628211ull;
                }
            }
    return h;
}

impl::SolverConfig pin_config(bool mixed, int fuse) {
    impl::SolverConfig cfg;
    cfg.problem = mixed ? advect::verify::mms_mixed_problem(24, 0.5)
                        : core::AdvectionProblem::standard(24);
    cfg.steps = 6;
    cfg.fuse = fuse;
    cfg.ntasks = 2;
    cfg.threads_per_task = 2;
    cfg.box_thickness = 4;
    cfg.block_x = 8;
    cfg.block_y = 4;
    return cfg;
}

struct PinnedHash {
    const char* impl_id;
    bool mixed;
    int fuse;
    std::uint64_t hash;
};

/// Captured from the seed tree (pre-refactor) with the print mode below.
const PinnedHash kPinned[] = {
    {"single_task", false, 1, 0x7a099fc660ae338bull},
    {"mpi_bulk", false, 1, 0x7a099fc660ae338bull},
    {"mpi_nonblocking", false, 1, 0x7a099fc660ae338bull},
    {"mpi_thread_overlap", false, 1, 0x7a099fc660ae338bull},
    {"gpu_resident", false, 1, 0x7a099fc660ae338bull},
    {"gpu_mpi_bulk", false, 1, 0x7a099fc660ae338bull},
    {"gpu_mpi_streams", false, 1, 0x7a099fc660ae338bull},
    {"cpu_gpu_bulk", false, 1, 0x7a099fc660ae338bull},
    {"cpu_gpu_overlap", false, 1, 0x7a099fc660ae338bull},
    {"single_task", false, 4, 0x7a099fc660ae338bull},
    {"mpi_bulk", false, 4, 0x7a099fc660ae338bull},
    {"mpi_nonblocking", false, 4, 0x7a099fc660ae338bull},
    {"mpi_thread_overlap", false, 4, 0x7a099fc660ae338bull},
    {"gpu_resident", false, 4, 0x7a099fc660ae338bull},
    {"gpu_mpi_bulk", false, 4, 0x7a099fc660ae338bull},
    {"gpu_mpi_streams", false, 4, 0x7a099fc660ae338bull},
    {"cpu_gpu_bulk", false, 4, 0x7a099fc660ae338bull},
    {"cpu_gpu_overlap", false, 4, 0x7a099fc660ae338bull},
    {"single_task", true, 1, 0xc7a0b801e0730adfull},
    {"mpi_bulk", true, 1, 0xc7a0b801e0730adfull},
    {"mpi_nonblocking", true, 1, 0xc7a0b801e0730adfull},
    {"mpi_thread_overlap", true, 1, 0xc7a0b801e0730adfull},
    {"gpu_resident", true, 1, 0xc7a0b801e0730adfull},
    {"gpu_mpi_bulk", true, 1, 0xc7a0b801e0730adfull},
    {"gpu_mpi_streams", true, 1, 0xc7a0b801e0730adfull},
    {"cpu_gpu_bulk", true, 1, 0xc7a0b801e0730adfull},
    {"cpu_gpu_overlap", true, 1, 0xc7a0b801e0730adfull},
};

}  // namespace

// Pre-refactor capture hook: ADVECT_PRINT_PINS=1 prints the table instead of
// asserting. Used once against the seed tree; kept for regenerating after an
// intentional numerical change.
TEST(BoundaryParity, PeriodicDefaultBitwisePin) {
    const bool print = std::getenv("ADVECT_PRINT_PINS") != nullptr;
    if (print) {
        for (const bool mixed : {false, true})
            for (const int fuse : {1, 4})
                for (const auto& e : impl::registry()) {
                    if (mixed && fuse > 1) continue;  // a source never fuses
                    const auto cfg = pin_config(mixed, fuse);
                    const auto r = impl::run_plan_solver(e.id, cfg);
                    std::printf("    {\"%s\", %s, %d, 0x%llxull},\n",
                                e.id.c_str(), mixed ? "true" : "false", fuse,
                                static_cast<unsigned long long>(
                                    interior_hash(r.state)));
                }
        GTEST_SKIP() << "printed pin table";
    }
    for (const PinnedHash& p : kPinned) {
        const auto cfg = pin_config(p.mixed, p.fuse);
        const auto r = impl::run_plan_solver(p.impl_id, cfg);
        EXPECT_EQ(interior_hash(r.state), p.hash)
            << p.impl_id << " mixed=" << p.mixed << " fuse=" << p.fuse;
    }
    for (const auto& e : impl::registry())
        EXPECT_THROW((void)impl::run_plan_solver(e.id, pin_config(true, 4)),
                     advect::plan::FuseGeometryError)
            << e.id << " fused a manufactured source";
}

namespace {

const char* const kVarProblems[] = {"solid-body", "deformational",
                                    "rotating-inflow"};

impl::SolverConfig var_pin_config(const std::string& problem) {
    impl::SolverConfig cfg = pin_config(false, 1);
    if (problem == "rotating-inflow") {
        cfg.problem = core::AdvectionProblem::standard(24);
        cfg.problem.scenario = core::scenario_by_name("rotating-inflow");
        cfg.problem.nu = 0.5 / cfg.problem.velocity_field().max_abs();
    } else {
        cfg.problem = advect::verify::mms_variable_problem(
            24, problem == "solid-body"
                    ? core::VelocityKind::SolidBodyRotation
                    : core::VelocityKind::Deformational);
    }
    return cfg;
}

struct VarPin {
    const char* impl_id;
    const char* problem;
    std::uint64_t hash;
};

/// Captured with the print mode below from the tree whose variable sweep
/// was the scalar stencil_var_point loop over array-of-structs rows.
const VarPin kVarPinned[] = {
    {"single_task", "solid-body", 0xb148a03daffdfd25ull},
    {"mpi_bulk", "solid-body", 0xb148a03daffdfd25ull},
    {"mpi_nonblocking", "solid-body", 0xb148a03daffdfd25ull},
    {"mpi_thread_overlap", "solid-body", 0xb148a03daffdfd25ull},
    {"gpu_resident", "solid-body", 0xb148a03daffdfd25ull},
    {"gpu_mpi_bulk", "solid-body", 0xb148a03daffdfd25ull},
    {"gpu_mpi_streams", "solid-body", 0xb148a03daffdfd25ull},
    {"cpu_gpu_bulk", "solid-body", 0xb148a03daffdfd25ull},
    {"cpu_gpu_overlap", "solid-body", 0xb148a03daffdfd25ull},
    {"single_task", "deformational", 0x7d940aabed4f6000ull},
    {"mpi_bulk", "deformational", 0x7d940aabed4f6000ull},
    {"mpi_nonblocking", "deformational", 0x7d940aabed4f6000ull},
    {"mpi_thread_overlap", "deformational", 0x7d940aabed4f6000ull},
    {"gpu_resident", "deformational", 0x7d940aabed4f6000ull},
    {"gpu_mpi_bulk", "deformational", 0x7d940aabed4f6000ull},
    {"gpu_mpi_streams", "deformational", 0x7d940aabed4f6000ull},
    {"cpu_gpu_bulk", "deformational", 0x7d940aabed4f6000ull},
    {"cpu_gpu_overlap", "deformational", 0x7d940aabed4f6000ull},
    {"single_task", "rotating-inflow", 0x957ecbefb34196eaull},
    {"mpi_bulk", "rotating-inflow", 0x957ecbefb34196eaull},
    {"mpi_nonblocking", "rotating-inflow", 0x957ecbefb34196eaull},
    {"mpi_thread_overlap", "rotating-inflow", 0x957ecbefb34196eaull},
    {"gpu_resident", "rotating-inflow", 0x957ecbefb34196eaull},
    {"gpu_mpi_bulk", "rotating-inflow", 0x957ecbefb34196eaull},
    {"gpu_mpi_streams", "rotating-inflow", 0x957ecbefb34196eaull},
    {"cpu_gpu_bulk", "rotating-inflow", 0x957ecbefb34196eaull},
    {"cpu_gpu_overlap", "rotating-inflow", 0x957ecbefb34196eaull},
};

}  // namespace

TEST(BoundaryParity, VariableCoefficientBitwisePin) {
    if (std::getenv("ADVECT_PRINT_PINS") != nullptr) {
        for (const char* problem : kVarProblems)
            for (const auto& e : impl::registry()) {
                const auto r =
                    impl::run_plan_solver(e.id, var_pin_config(problem));
                std::printf("    {\"%s\", \"%s\", 0x%llxull},\n",
                            e.id.c_str(), problem,
                            static_cast<unsigned long long>(
                                interior_hash(r.state)));
            }
        GTEST_SKIP() << "printed pin table";
    }
    ASSERT_EQ(std::size(kVarPinned),
              std::size(kVarProblems) * impl::registry().size());
    for (const VarPin& p : kVarPinned) {
        const auto r =
            impl::run_plan_solver(p.impl_id, var_pin_config(p.problem));
        EXPECT_EQ(interior_hash(r.state), p.hash)
            << p.impl_id << " problem=" << p.problem;
    }
}

namespace {

impl::SolverConfig scenario_config(core::AdvectionProblem problem, int fuse) {
    impl::SolverConfig cfg;
    cfg.problem = std::move(problem);
    cfg.steps = 6;
    cfg.fuse = fuse;
    cfg.ntasks = 2;
    cfg.threads_per_task = 2;
    cfg.box_thickness = fuse > 1 ? fuse : 2;
    cfg.block_x = 8;
    cfg.block_y = 4;
    return cfg;
}

/// Every implementation must reproduce `baseline` bitwise.
void expect_all_match(const impl::SolverConfig& cfg,
                      const core::Field3& baseline, const char* what) {
    for (const auto& e : impl::registry()) {
        const auto r = impl::run_plan_solver(e.id, cfg);
        EXPECT_TRUE(r.state.interior_equals(baseline))
            << e.id << " diverges (" << what << ", fuse=" << cfg.fuse << ")";
    }
}

}  // namespace

// Contract 2a: open boundaries are implementation-invariant at fuse 1, and
// equal to the serial reference (which applies the identical per-dimension
// fill ordering).
TEST(BoundaryParity, OpenBoundariesMatchReferenceUnfused) {
    for (const auto& problem :
         {advect::verify::inflow_problem(20), advect::verify::open_box_problem(20),
          advect::verify::inflow_mms_problem(20)}) {
        const auto cfg = scenario_config(problem, 1);
        const auto reference = core::run_reference(cfg.problem, cfg.steps);
        expect_all_match(cfg, reference, "open boundary");
    }
}

// Contract 2b: variable coefficients are implementation-invariant (host
// rows, TeamStages drains, and the device kernel share stencil_var_point,
// so the sum order is identical everywhere).
TEST(BoundaryParity, VariableCoefficientsMatchReference) {
    for (const auto kind : {core::VelocityKind::SolidBodyRotation,
                            core::VelocityKind::Deformational}) {
        const auto cfg = scenario_config(
            advect::verify::mms_variable_problem(20, kind), 1);
        const auto reference = core::run_reference(cfg.problem, cfg.steps);
        expect_all_match(cfg, reference, core::to_string(kind));
    }
}

// Variable coefficients compose with open boundaries.
TEST(BoundaryParity, VariableThroughInflowMatchesReference) {
    auto problem = advect::verify::mms_variable_problem(
        20, core::VelocityKind::SolidBodyRotation);
    problem.scenario.faces[core::kFaceXLo] = core::BoundaryKind::Inflow;
    problem.scenario.faces[core::kFaceXHi] = core::BoundaryKind::Inflow;
    const auto cfg = scenario_config(problem, 1);
    const auto reference = core::run_reference(cfg.problem, cfg.steps);
    expect_all_match(cfg, reference, "solid-body rotation through inflow-x");
}

// Open faces never fuse: their boundary data changes every step, which the
// register chain cannot apply between levels. Every implementation rejects
// the combination up front.
TEST(BoundaryParity, OpenBoundariesRejectFusing) {
    for (const auto& problem : {advect::verify::inflow_problem(20),
                                advect::verify::open_box_problem(20)}) {
        const auto cfg = scenario_config(problem, 4);
        for (const auto& e : impl::registry())
            EXPECT_THROW((void)impl::run_plan_solver(e.id, cfg),
                         advect::plan::FuseGeometryError)
                << e.id;
    }
}

// Variable coefficients have one coefficient per cell, not one per step
// like the register chain: every implementation rejects the combination up
// front.
TEST(BoundaryParity, VariableCoefficientsRejectFusing) {
    const auto cfg = scenario_config(
        advect::verify::mms_variable_problem(
            20, core::VelocityKind::Deformational),
        4);
    for (const auto& e : impl::registry())
        EXPECT_THROW((void)impl::run_plan_solver(e.id, cfg),
                     advect::plan::FuseGeometryError)
            << e.id;
}
