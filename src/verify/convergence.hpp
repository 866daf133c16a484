#pragma once
/// \file convergence.hpp
/// Observed-convergence-order estimation over a grid-refinement sequence
/// (docs/VERIFICATION.md "Order gates"): run one implementation over a
/// ladder of grids integrated to the same simulated time, and estimate the
/// order p from successive error ratios, p = log2(e(h) / e(h/2)). ctest
/// gates assert |p - 2| <= 0.2 — the scheme's formal order for fixed
/// simulated time (paper §II) — for several implementations. Every
/// manufactured problem carries a source, so the ladder runs unfused
/// (impl::plan_job admits fuse > 1 only on source-free jobs).

#include <span>
#include <string>
#include <vector>

#include "core/norms.hpp"

namespace advect::verify {

/// One rung of the refinement ladder.
struct OrderPoint {
    int n = 0;      ///< grid points per dimension
    int steps = 0;  ///< steps to the common simulated time
    core::Norms error;
};

struct OrderStudy {
    std::string impl_id;
    std::vector<OrderPoint> points;  ///< coarse to fine
    /// Observed order from the finest grid pair (the asymptotic estimate).
    double order_l2 = 0.0;
    double order_linf = 0.0;
};

/// Which verification problem the ladder runs (docs/SCENARIOS.md). The
/// scenario regimes reuse the same grids/steps scaling.
enum class StudyRegime {
    Constant,           ///< periodic constant velocity (mms / mixed problem)
    SolidBodyRotation,  ///< mms_variable_problem, solid-body rotation
    Deformational,      ///< mms_variable_problem, deformational flow
    InflowX,            ///< Dirichlet inflow on both x faces
    OpenBox,            ///< all six faces Dirichlet inflow
};

/// Parameters of a study. Every grid must be a multiple of the coarsest
/// (steps scale linearly so each rung reaches the same simulated time).
struct StudyParams {
    std::vector<int> grids{16, 32, 64};
    int coarse_steps = 8;
    double nu_fraction = 0.5;
    int ntasks = 2;   ///< ranks for the communicating implementations
    int threads = 2;  ///< OpenMP threads per rank
    /// false: pure manufactured mode (zero initial condition, fully
    /// resolved on every rung — asymptotic immediately). true: Gaussian
    /// wave plus source (the mixed problem; its sigma = 0.08 wave is
    /// marginally resolved on a 16^3 rung, so expect order only on the
    /// finer pairs). For InflowX, true selects the translated-Gaussian
    /// inflow problem instead of the manufactured one; ignored by the
    /// variable-coefficient and OpenBox regimes.
    bool mixed = false;
    StudyRegime regime = StudyRegime::Constant;
};

/// Run the manufactured-solution refinement study for one implementation.
/// Throws std::out_of_range for an unknown impl_id.
[[nodiscard]] OrderStudy convergence_study(const std::string& impl_id,
                                           const StudyParams& params = {});

/// Format a study as an aligned table (one line per rung plus a header).
[[nodiscard]] std::string format_study(const OrderStudy& study);

}  // namespace advect::verify
