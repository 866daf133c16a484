/// \file paper_scale.cpp
/// Run the paper's actual 420^3 problem through the functional layer — one
/// real Lax-Wendroff step over 74 million points on the simulated GPU
/// (which, like the real C2050, is sized so the problem "just fits") — and
/// verify the step against the serial reference. Slow by design: this is
/// the full problem, executed, not modelled.
///
/// Usage: paper_scale [n] [steps]   (defaults: 420, 1)

#include <cstdio>
#include <cstdlib>

#include "core/problem.hpp"
#include "impl/harness.hpp"

int main(int argc, char** argv) {
    namespace core = advect::core;
    namespace impl = advect::impl;

    const int n = argc > 1 ? std::atoi(argv[1]) : 420;
    const int steps = argc > 2 ? std::atoi(argv[2]) : 1;

    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(n);
    cfg.steps = steps;
    cfg.threads_per_task = 2;
    cfg.block_x = 32;
    cfg.block_y = 8;  // the paper's Yona block

    const double mem_gb =
        2.0 * static_cast<double>(n + 2) * (n + 2) * (n + 2) * 8.0 / (1 << 30);
    std::printf("paper-scale run: %d^3 grid (%.2f GB of state), %d step(s), "
                "GPU-resident (§IV-E)\n",
                n, mem_gb, steps);
    std::printf("simulated device: Tesla C2050 (3 GB) — the paper sized "
                "420^3 to just fit\n\n");

    const auto r = impl::run_plan_solver("gpu_resident", cfg);
    std::printf("wall time        : %.2f s (%.2f s/step on this host)\n",
                r.wall_seconds, r.wall_seconds / steps);
    std::printf("host throughput  : %.2f GF\n", r.gf(cfg));
    std::printf("error vs analytic: Linf %.3e\n", r.error.linf);

    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    const bool match = r.state.interior_equals(ref);
    std::printf("matches reference: %s\n", match ? "yes (bitwise)" : "NO");
    return match && r.error.linf < 1e-10 ? 0 : 1;
}
