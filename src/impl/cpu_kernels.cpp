#include "impl/cpu_kernels.hpp"

#include <chrono>

#include "core/halo.hpp"

namespace advect::impl {

namespace omp = advect::omp;

double now_seconds() {
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double>(t).count();
}

void halo_fill_parallel(omp::ThreadTeam& team, core::Field3& f, int dim) {
    const int depth = f.halo_width();
    for (int d = dim < 0 ? 0 : dim; d <= (dim < 0 ? 2 : dim); ++d)
        omp::parallel_for(team, 0,
                          core::periodic_halo_rows(f.extents(), d, depth),
                          omp::Schedule::Static,
                          [&](std::int64_t lo, std::int64_t hi) {
                              core::fill_periodic_halo_rows(f, d, depth, lo,
                                                            hi);
                          });
}

void write_block(core::Field3& global, const core::Field3& local,
                 const core::Index3& origin) {
    const auto n = local.extents();
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i)
                global(origin.i + i, origin.j + j, origin.k + k) =
                    local(i, j, k);
}

SolveResult finish_result(const SolverConfig& cfg, core::Field3 state,
                          double wall) {
    SolveResult r;
    r.error = core::error_vs_analytic(cfg.problem, state, cfg.steps);
    r.state = std::move(state);
    r.wall_seconds = wall;
    return r;
}

}  // namespace advect::impl
