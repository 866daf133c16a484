/// \file hybrid_overlap.cpp
/// The paper in miniature, functionally: run all nine implementations
/// (§IV-A..I) on the same small problem — MPI ranks as threads, OpenMP-like
/// teams, and the simulated GPU — and check that every one produces exactly
/// the same state as the serial reference. This is the correctness half of
/// the reproduction; the figure benches model the performance half.
///
/// Usage: hybrid_overlap [grid] [steps] [ntasks] [threads]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/decomposition.hpp"
#include "core/problem.hpp"
#include "impl/harness.hpp"
#include "impl/registry.hpp"

int main(int argc, char** argv) {
    namespace core = advect::core;
    namespace impl = advect::impl;

    impl::SolverConfig cfg;
    const int n = argc > 1 ? std::atoi(argv[1]) : 24;
    cfg.problem = core::AdvectionProblem::standard(n);
    cfg.steps = argc > 2 ? std::atoi(argv[2]) : 6;
    cfg.ntasks = argc > 3 ? std::atoi(argv[3]) : 4;
    cfg.threads_per_task = argc > 4 ? std::atoi(argv[4]) : 2;
    cfg.block_x = 8;
    cfg.block_y = 4;
    cfg.box_thickness = 2;
    cfg.tasks_per_gpu = 2;

    std::printf("hybrid_overlap: %d^3 grid, %d steps, %d tasks x %d threads, "
                "GPU block %dx%d, box %d\n\n",
                n, cfg.steps, cfg.ntasks, cfg.threads_per_task, cfg.block_x,
                cfg.block_y, cfg.box_thickness);

    // Clamp the box so the Fig. 1 partition fits the smallest subdomain.
    {
        const auto d = core::make_decomposition(cfg.problem.domain.extents(),
                                                cfg.ntasks);
        int min_extent = cfg.problem.domain.n;
        for (int r = 0; r < d.nranks(); ++r) {
            const auto e = d.local_extents(r);
            min_extent = std::min({min_extent, e.nx, e.ny, e.nz});
        }
        cfg.box_thickness =
            std::max(1, std::min(cfg.box_thickness, (min_extent - 1) / 2));
    }

    const auto reference = core::run_reference(cfg.problem, cfg.steps);

    std::printf("%-22s %-6s %10s %12s %14s\n", "implementation", "§", "Linf",
                "wall (ms)", "== reference");
    bool all_match = true;
    for (const auto& entry : impl::registry()) {
        try {
            const auto r = impl::run_plan_solver(entry.id, cfg);
            const bool match = r.state.interior_equals(reference);
            all_match = all_match && match;
            std::printf("%-22s %-6s %10.2e %12.2f %14s\n", entry.id.c_str(),
                        entry.paper_section.c_str(), r.error.linf,
                        r.wall_seconds * 1e3, match ? "yes" : "NO");
        } catch (const std::exception& e) {
            all_match = false;
            std::printf("%-22s %-6s  error: %s\n", entry.id.c_str(),
                        entry.paper_section.c_str(), e.what());
        }
    }

    std::printf("\n%s\n", all_match
                              ? "All nine implementations agree bitwise with "
                                "the serial reference."
                              : "MISMATCH: implementations disagree!");
    std::printf("(Wall times here are functional-simulation times on the "
                "host, not modelled\n machine times — see the bench/ "
                "binaries for the paper's figures.)\n");
    return all_match ? 0 : 1;
}
