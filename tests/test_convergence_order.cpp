/// \file test_convergence_order.cpp
/// Hard convergence-order gates (docs/VERIFICATION.md "Order gates"): the
/// observed order on the manufactured-solution refinement ladder
/// {16, 32, 64}^3 must sit within 0.2 of the scheme's formal order 2, for a
/// CPU, an MPI, a GPU and a hybrid implementation. The source hook is
/// threaded through every execution path (reference loop, host row
/// epilogue, GPU kernels), so a sign error or a mis-leveled source add
/// shows up here as an order collapse even when the implementations still
/// agree bitwise. Manufactured problems carry a source, so they never fuse.

#include <gtest/gtest.h>

#include <cmath>

#include "verify/convergence.hpp"

namespace verify = advect::verify;

namespace {

class OrderGate : public ::testing::TestWithParam<const char*> {};

TEST_P(OrderGate, ObservedOrderIsSecond) {
    const auto study = verify::convergence_study(GetParam());
    ASSERT_EQ(study.points.size(), 3u);
    // Errors must actually shrink down the ladder (guards against a
    // vacuous gate where the error saturates at roundoff or blows up).
    for (std::size_t i = 1; i < study.points.size(); ++i) {
        EXPECT_LT(study.points[i].error.l2, study.points[i - 1].error.l2);
        EXPECT_GT(study.points[i].error.l2, 1e-12);
    }
    EXPECT_NEAR(study.order_l2, 2.0, 0.2) << verify::format_study(study);
    EXPECT_NEAR(study.order_linf, 2.0, 0.2) << verify::format_study(study);
}

INSTANTIATE_TEST_SUITE_P(
    Impl, OrderGate,
    ::testing::Values("single_task", "mpi_nonblocking", "gpu_resident",
                      "cpu_gpu_overlap"),
    [](const ::testing::TestParamInfo<const char*>& info) {
        return std::string(info.param);
    });

// Scenario order gates (docs/SCENARIOS.md): the variable-coefficient
// scheme (midpoint-traced velocity, per-row coefficient cache) and the
// Dirichlet-inflow boundary fill must not cost the scheme its order. Each
// regime runs the same {16, 32, 64}^3 ladder. The implementations chosen
// cover the three
// distinct execution paths of the new code: host stencil rows
// (single_task), distributed boundary fill (mpi_nonblocking), and the
// device variable-coefficient kernel (gpu_resident).
struct ScenarioGateCase {
    const char* name;
    verify::StudyRegime regime;
    const char* impl;
};

class ScenarioOrderGate : public ::testing::TestWithParam<ScenarioGateCase> {
};

TEST_P(ScenarioOrderGate, ObservedOrderIsSecond) {
    const auto& c = GetParam();
    verify::StudyParams params;
    params.regime = c.regime;
    const auto study = verify::convergence_study(c.impl, params);
    ASSERT_EQ(study.points.size(), 3u);
    for (std::size_t i = 1; i < study.points.size(); ++i) {
        EXPECT_LT(study.points[i].error.l2, study.points[i - 1].error.l2);
        EXPECT_GT(study.points[i].error.l2, 1e-12);
    }
    EXPECT_NEAR(study.order_l2, 2.0, 0.2) << verify::format_study(study);
    EXPECT_NEAR(study.order_linf, 2.0, 0.2) << verify::format_study(study);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, ScenarioOrderGate,
    ::testing::Values(
        ScenarioGateCase{"sbr_single_task",
                         verify::StudyRegime::SolidBodyRotation,
                         "single_task"},
        ScenarioGateCase{"deformational_gpu_resident",
                         verify::StudyRegime::Deformational, "gpu_resident"},
        ScenarioGateCase{"inflow_mpi_nonblocking",
                         verify::StudyRegime::InflowX, "mpi_nonblocking"},
        ScenarioGateCase{"open_box_single_task",
                         verify::StudyRegime::OpenBox, "single_task"}),
    [](const ::testing::TestParamInfo<ScenarioGateCase>& info) {
        return std::string(info.param.name);
    });

// The mixed problem (Gaussian wave + manufactured source) still converges:
// superposition holds for the linear scheme, so the source must not
// degrade transport accuracy. The sigma = 0.08 wave is only marginally
// resolved on the 16^3 rung, so the gate here is looser than the pure-MMS
// gates above: errors shrink monotonically and the finest-pair order is
// second within 0.35.
TEST(OrderGateMixed, MixedProblemConverges) {
    verify::StudyParams params;
    params.mixed = true;
    const auto study = verify::convergence_study("single_task", params);
    ASSERT_EQ(study.points.size(), 3u);
    for (std::size_t i = 1; i < study.points.size(); ++i)
        EXPECT_LT(study.points[i].error.l2, study.points[i - 1].error.l2)
            << verify::format_study(study);
    EXPECT_NEAR(study.order_l2, 2.0, 0.35) << verify::format_study(study);
}

}  // namespace
