#include "impl/cpu_kernels.hpp"

#include <chrono>
#include <cstring>

#include "core/halo.hpp"

namespace advect::impl {

namespace omp = advect::omp;

double now_seconds() {
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double>(t).count();
}

void halo_fill_parallel(omp::ThreadTeam& team, core::Field3& f, int dim) {
    const auto plan = core::HaloPlan::make(f.extents(), f.halo_width());
    const int first = dim < 0 ? 0 : dim;
    const int last = dim < 0 ? 2 : dim;
    for (int d = first; d <= last; ++d) {
        const auto& e = plan.dims[static_cast<std::size_t>(d)];
        // halo <- opposite boundary plane; both copies of a dimension are
        // independent, so fold them into one parallel loop over rows.
        const auto lo_ext = e.recv_low.extents();
        const std::int64_t rows_lo =
            static_cast<std::int64_t>(lo_ext.ny) * lo_ext.nz;
        const auto hi_ext = e.recv_high.extents();
        const std::int64_t rows_hi =
            static_cast<std::int64_t>(hi_ext.ny) * hi_ext.nz;
        // Offset from a halo point to its periodic source along dim d.
        const int n_d = f.extents()[d];
        // Doubles between neighbouring planes along d; a halo row's source
        // row is n_d planes away.
        const std::ptrdiff_t stride =
            d == 0 ? 1 : (d == 1 ? f.x_stride() : f.xy_stride());
        auto copy_rows_of = [&f, d, stride](const core::Range3& dst_region,
                                            int shift, std::int64_t lo,
                                            std::int64_t hi) {
            const auto ext = dst_region.extents();
            const std::ptrdiff_t src = shift * stride;
            // Decode the chunk's first row once, then step (j, k).
            int j = dst_region.lo.j + static_cast<int>(lo % ext.ny);
            int k = dst_region.lo.k + static_cast<int>(lo / ext.ny);
            for (std::int64_t r = lo; r < hi; ++r) {
                double* row = f.ptr(dst_region.lo.i, j, k);
                if (d == 0) {
                    // x faces are depth points per row, shifted along the
                    // contiguous dimension.
                    for (int i = 0; i < ext.nx; ++i) row[i] = row[i + src];
                } else {
                    // y/z faces shift in j or k only, so source and
                    // destination rows are both x-contiguous: one memcpy.
                    std::memcpy(row, row + src,
                                static_cast<std::size_t>(ext.nx) *
                                    sizeof(double));
                }
                if (++j == dst_region.hi.j) {
                    j = dst_region.lo.j;
                    ++k;
                }
            }
        };
        omp::parallel_for(
            team, 0, rows_lo + rows_hi, omp::Schedule::Static,
            [&](std::int64_t lo, std::int64_t hi) {
                // Low halo at -1 reads plane n-1 (shift +n); high halo at n
                // reads plane 0 (shift -n).
                const std::int64_t split_lo = std::min(hi, rows_lo);
                if (lo < rows_lo)
                    copy_rows_of(e.recv_low, n_d, lo, split_lo);
                if (hi > rows_lo)
                    copy_rows_of(e.recv_high, -n_d,
                                 std::max<std::int64_t>(0, lo - rows_lo),
                                 hi - rows_lo);
            });
    }
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
