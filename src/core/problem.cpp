#include "core/problem.hpp"

#include "core/halo.hpp"
#include "core/stencil.hpp"

namespace advect::core {

AdvectionProblem AdvectionProblem::standard(int n) {
    AdvectionProblem p;
    p.domain.n = n;
    p.velocity = {1.0, 1.0, 1.0};
    p.nu = max_stable_nu(p.velocity);
    return p;
}

std::size_t total_flops(std::size_t points, int steps) {
    return points * static_cast<std::size_t>(steps) *
           static_cast<std::size_t>(kFlopsPerPoint);
}

double gflops(std::size_t points, int steps, double seconds) {
    return static_cast<double>(total_flops(points, steps)) / seconds / 1e9;
}

SourceField make_source_field(const AdvectionProblem& p) {
    return {p.source, p.velocity_field(), p.domain.n, p.domain.delta(),
            p.dt()};
}

BoundaryField make_boundary_field(const AdvectionProblem& p) {
    return {p.wave, p.velocity, p.source, p.domain.n, p.domain.delta(),
            p.dt()};
}

namespace {

/// The variable-coefficient reference sweep: the scalar stencil_var_point
/// arithmetic cell by cell over the whole interior, each cell's 27
/// coefficients gathered from its struct-of-arrays cache row — not the
/// vector row kernel the implementations run, so every comparison against
/// run_reference checks that kernel independently.
void reference_var_sweep(const CoeffCache& cache, const Field3& in,
                         Field3& out) {
    const auto n = in.extents();
    const auto nx = static_cast<std::size_t>(cache.nx());
    double a[27];
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j) {
            const double* row = cache.row(j, k);
            for (int i = 0; i < n.nx; ++i) {
                for (std::size_t t = 0; t < 27; ++t)
                    a[t] = row[t * nx + static_cast<std::size_t>(i)];
                out(i, j, k) = stencil_var_point(a, in.ptr(i, j, k),
                                                 in.x_stride(), in.xy_stride());
            }
        }
}

}  // namespace

Field3 run_reference(const AdvectionProblem& p, int steps) {
    const auto coeffs = p.coeffs();
    const SourceField sf = make_source_field(p);
    const unsigned open = p.scenario.open_faces();
    const BoundaryField bf = make_boundary_field(p);
    const bool var = !p.constant_coefficients();
    CoeffCache cache;
    if (var) cache = CoeffCache(p.coeff_field(), p.domain.extents(), {0, 0, 0});
    Field3 cur(p.domain.extents());
    Field3 nxt(p.domain.extents());
    fill_initial(cur, p.domain, p.wave);
    for (int s = 0; s < steps; ++s) {
        // Dimension-serialized fill; open faces overwrite their staged
        // halo slabs right after the dimension's periodic fill, the same
        // per-dim interleaving the distributed plans use (corners
        // propagate through the later stages either way).
        for (int d = 0; d < 3; ++d) {
            fill_periodic_halo_dim(cur, d);
            if (open)
                fill_boundary_dim(cur, d, open, p.scenario.faces, bf,
                                  {0, 0, 0}, s);
        }
        if (var)
            reference_var_sweep(cache, cur, nxt);
        else
            apply_stencil(coeffs, cur, nxt);
        if (sf.active()) add_source(nxt, sf, {0, 0, 0}, nxt.interior(), s);
        cur.swap(nxt);
    }
    return cur;
}

Norms error_vs_analytic(const AdvectionProblem& p, const Field3& state,
                        int steps, const Index3& origin) {
    Field3 exact(state.extents());
    const double t = p.time_at(steps);
    fill_analytic(exact, p.domain, p.wave, p.velocity, t, origin);
    if (p.source.active()) {
        // By linearity the exact solution gains the manufactured field
        // (which starts at zero, so the initial condition is unchanged).
        const auto n = exact.extents();
        const double d = p.domain.delta();
        for (int k = 0; k < n.nz; ++k)
            for (int j = 0; j < n.ny; ++j)
                for (int i = 0; i < n.nx; ++i)
                    exact(i, j, k) += p.source.manufactured(
                        (origin.i + i) * d, (origin.j + j) * d,
                        (origin.k + k) * d, t);
    }
    return diff_norms(state, exact);
}

}  // namespace advect::core
