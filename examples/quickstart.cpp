/// \file quickstart.cpp
/// Minimal tour of the advectlab API: set up the paper's test case (3-D
/// linear advection of a Gaussian wave in a periodic cube, Lax-Wendroff,
/// maximum stable time step), run the single-task implementation, and
/// verify against the analytic solution — the paper's own verification
/// procedure (§IV-A: "recording norms of the difference between the
/// computed state and the analytic state").
///
/// Usage: quickstart [grid_points_per_dim] [steps]

#include <cstdio>
#include <cstdlib>

#include "impl/harness.hpp"

int main(int argc, char** argv) {
    namespace core = advect::core;
    namespace impl = advect::impl;

    const int n = argc > 1 ? std::atoi(argv[1]) : 48;
    const int steps = argc > 2 ? std::atoi(argv[2]) : 24;

    // The test case of paper §II: a periodic n^3 cube, c = (1,1,1), and the
    // largest stable nu (which for |c| = 1 is exactly 1: the scheme then
    // advects the wave one cell diagonally per step, exactly).
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(n);
    cfg.steps = steps;
    cfg.threads_per_task = 2;

    std::printf("advectlab quickstart\n");
    std::printf("  grid        : %d^3 periodic, delta = %g\n", n,
                cfg.problem.domain.delta());
    std::printf("  velocity    : (%g, %g, %g), nu = %g (max stable)\n",
                cfg.problem.velocity.cx, cfg.problem.velocity.cy,
                cfg.problem.velocity.cz, cfg.problem.nu);
    std::printf("  stepping    : %d steps of Lax-Wendroff (Table I "
                "coefficients)\n\n", steps);

    const auto result = impl::run_plan_solver("single_task", cfg);

    std::printf("  wall time   : %.3f s\n", result.wall_seconds);
    std::printf("  performance : %.2f GF (53 flops/point/step)\n",
                result.gf(cfg));
    std::printf("  error vs analytic: L1 %.3e  L2 %.3e  Linf %.3e\n",
                result.error.l1, result.error.l2, result.error.linf);

    if (result.error.linf > 1e-10) {
        std::printf("unexpectedly large error!\n");
        return 1;
    }
    std::printf("\nAt unit Courant number the scheme is an exact shift, so "
                "the error is\npure round-off. Try `quickstart %d %d` after "
                "editing nu in the source to\nsee genuine discretization "
                "error.\n", n, steps);
    return 0;
}
