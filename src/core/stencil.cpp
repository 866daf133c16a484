#include "core/stencil.hpp"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "core/rows.hpp"

namespace advect::core {

double stencil_point(const StencilCoeffs& a, const Field3& in, int i, int j,
                     int k) {
    double s = 0.0;
    for (int dk = -1; dk <= 1; ++dk)
        for (int dj = -1; dj <= 1; ++dj)
            for (int di = -1; di <= 1; ++di)
                s += a.at(di, dj, dk) * in(i + di, j + dj, k + dk);
    return s;
}

StencilPlan StencilPlan::make(const StencilCoeffs& a, std::ptrdiff_t x_stride,
                              const std::array<std::ptrdiff_t, 3>& plane) {
    StencilPlan p;
    // StencilCoeffs::index(di, dj, dk) flattens di fastest, dk slowest —
    // the same order as the reference summation — so the coefficient array
    // is already in plan order. Zero coefficients are compacted away (terms
    // keep their relative order; see the bitwise argument in stencil.hpp).
    std::size_t t = 0;
    int kept = 0;
    for (int dk = -1; dk <= 1; ++dk)
        for (int dj = -1; dj <= 1; ++dj)
            for (int di = -1; di <= 1; ++di, ++t) {
                assert(static_cast<int>(t) == StencilCoeffs::index(di, dj, dk));
                if (a.a[t] == 0.0) continue;
                p.coeff[kept] = a.a[t];
                p.offset[kept] = di + dj * x_stride +
                                 plane[static_cast<std::size_t>(dk + 1)];
                ++kept;
            }
    p.terms = kept;
    return p;
}

StencilPlan StencilPlan::make(const StencilCoeffs& a, std::ptrdiff_t x_stride,
                              std::ptrdiff_t xy_stride) {
    return make(a, x_stride, {-xy_stride, 0, xy_stride});
}

StencilPlan StencilPlan::make(const StencilCoeffs& a, ConstFieldView shape) {
    return make(a, shape.x_stride(), shape.xy_stride());
}

namespace detail {

// Portable baseline build of the shared kernel body; see
// stencil_row_kernel.inc for the blocking scheme and the bitwise argument.
#define ADVECT_ROW_KERNEL_NAME apply_stencil_row_portable
#define ADVECT_VAR_ROW_KERNEL_NAME apply_stencil_var_row_portable
#define ADVECT_PLANE_KERNEL_NAME apply_stencil_plane_portable
#define ADVECT_CHAIN_KERNEL_NAME apply_stencil_chain_portable
#include "core/stencil_row_kernel.inc"
#undef ADVECT_CHAIN_KERNEL_NAME
#undef ADVECT_PLANE_KERNEL_NAME
#undef ADVECT_VAR_ROW_KERNEL_NAME
#undef ADVECT_ROW_KERNEL_NAME

#ifdef ADVECT_HAVE_ROW_KERNEL_V3
// AVX2 builds of the same bodies, from stencil_row_v3.cpp.
void apply_stencil_row_v3(const StencilPlan& plan, const double* __restrict__,
                          double* __restrict__, int n);
void apply_stencil_var_row_v3(const double* __restrict__, std::ptrdiff_t,
                              const double* __restrict__, double* __restrict__,
                              int n, std::ptrdiff_t, std::ptrdiff_t);
void apply_stencil_plane_v3(const StencilPlan& plan,
                            const double* __restrict__, double* __restrict__,
                            int n, int rows, std::ptrdiff_t in_stride,
                            std::ptrdiff_t out_stride);
void apply_stencil_chain_v3(const StencilPlan& plan, int depth,
                            const double* __restrict__, double* __restrict__,
                            int n, int rows, std::ptrdiff_t in_stride,
                            std::ptrdiff_t out_stride);
#endif

// Each kernel resolves once at load time to the AVX2 clone when it is built
// in and the host supports it, else to the portable baseline; dispatch cost
// is one indirect call per row (per plane for the plane and chain kernels).
#ifdef ADVECT_HAVE_ROW_KERNEL_V3
#define ADVECT_PICK(name) \
    (__builtin_cpu_supports("avx2") ? name##_v3 : name##_portable)
#else
#define ADVECT_PICK(name) name##_portable
#endif
const auto row_kernel = ADVECT_PICK(apply_stencil_row);
const auto var_row_kernel = ADVECT_PICK(apply_stencil_var_row);
const auto plane_kernel = ADVECT_PICK(apply_stencil_plane);
const auto chain_kernel = ADVECT_PICK(apply_stencil_chain);
#undef ADVECT_PICK

bool row_kernel_is_vectorized() {
    return row_kernel != &apply_stencil_row_portable;
}

}  // namespace detail

void apply_stencil_row_ptr(const StencilPlan& plan, const double* in,
                           double* out, int n) {
    detail::row_kernel(plan, in, out, n);
}

void apply_stencil_var_row_ptr(const double* coeff,
                               std::ptrdiff_t coeff_stride, const double* in,
                               double* out, int n, std::ptrdiff_t x_stride,
                               std::ptrdiff_t xy_stride) {
    detail::var_row_kernel(coeff, coeff_stride, in, out, n, x_stride,
                           xy_stride);
}

void apply_stencil_plane_ptr(const StencilPlan& plan, const double* in,
                             double* out, int n, int rows,
                             std::ptrdiff_t in_stride,
                             std::ptrdiff_t out_stride) {
    detail::plane_kernel(plan, in, out, n, rows, in_stride, out_stride);
}

void apply_stencil_chain_ptr(const StencilPlan& plan, int depth,
                             const double* in, double* out, int n, int rows,
                             std::ptrdiff_t in_stride,
                             std::ptrdiff_t out_stride) {
    assert(plan.terms == 1);
    assert(depth >= 1);
    detail::chain_kernel(plan, depth, in, out, n, rows, in_stride, out_stride);
}

void apply_stencil(const StencilCoeffs& a, const Field3& in, Field3& out,
                   const Range3& r) {
    assert(in.extents() == out.extents());
    const auto n = in.extents();
    assert(r.lo.i >= 0 && r.hi.i <= n.nx);
    assert(r.lo.j >= 0 && r.hi.j <= n.ny);
    assert(r.lo.k >= 0 && r.hi.k <= n.nz);
    (void)n;
    if (r.empty()) return;
    const RowSpace rows({r});
    apply_stencil_rows(a, in, out, rows, 0, rows.size());
}

void apply_stencil(const StencilCoeffs& a, const Field3& in, Field3& out) {
    apply_stencil(a, in, out, in.interior());
}

InteriorBoundary partition_interior_boundary(const Extents3& n, int depth) {
    assert(depth >= 1);
    const int d = depth;
    InteriorBoundary p;
    p.interior = {{d, d, d}, {n.nx - d, n.ny - d, n.nz - d}};
    if (p.interior.empty()) p.interior = {{0, 0, 0}, {0, 0, 0}};

    auto push = [&p](Range3 r) {
        if (!r.empty()) p.boundary.push_back(r);
    };
    // z-low and z-high full xy slabs (merged when nz <= d).
    push({{0, 0, 0}, {n.nx, n.ny, std::min(d, n.nz)}});
    if (n.nz > d) push({{0, 0, std::max(d, n.nz - d)}, {n.nx, n.ny, n.nz}});
    if (n.nz > 2 * d) {
        const int zl = d, zh = n.nz - d;
        // y-low / y-high strips excluding the z slabs.
        push({{0, 0, zl}, {n.nx, std::min(d, n.ny), zh}});
        if (n.ny > d)
            push({{0, std::max(d, n.ny - d), zl}, {n.nx, n.ny, zh}});
        if (n.ny > 2 * d) {
            const int yl = d, yh = n.ny - d;
            // x-low / x-high pencils excluding the z and y pieces.
            push({{0, yl, zl}, {std::min(d, n.nx), yh, zh}});
            if (n.nx > d)
                push({{std::max(d, n.nx - d), yl, zl}, {n.nx, yh, zh}});
        }
    }
    return p;
}

std::vector<Range3> split_z(const Range3& r, int parts) {
    assert(parts >= 1);
    std::vector<Range3> out;
    const int nz = r.hi.k - r.lo.k;
    if (nz <= 0) return out;
    const int base = nz / parts;
    const int extra = nz % parts;
    int k = r.lo.k;
    for (int p = 0; p < parts; ++p) {
        const int len = base + (p < extra ? 1 : 0);
        if (len > 0) {
            Range3 s = r;
            s.lo.k = k;
            s.hi.k = k + len;
            out.push_back(s);
        }
        k += len;
    }
    return out;
}

std::vector<std::vector<Range3>> split_rows(const Range3& r, int parts) {
    assert(parts >= 1);
    std::vector<std::vector<Range3>> out(static_cast<std::size_t>(parts));
    if (r.empty()) return out;
    const int ny = r.hi.j - r.lo.j;
    const std::int64_t total = static_cast<std::int64_t>(r.hi.k - r.lo.k) * ny;
    for (int p = 0; p < parts; ++p) {
        auto& boxes = out[static_cast<std::size_t>(p)];
        // One run per plane; consecutive whole planes merge into one box.
        RowSpace::for_each_run(
            r, total * p / parts, total * (p + 1) / parts,
            [&](const RowSpace::Row& run, int count) {
                if (count == ny && !boxes.empty() &&
                    boxes.back().hi.j - boxes.back().lo.j == ny)
                    ++boxes.back().hi.k;
                else
                    boxes.push_back({{r.lo.i, run.j, run.k},
                                     {r.hi.i, run.j + count, run.k + 1}});
            });
    }
    return out;
}

}  // namespace advect::core
