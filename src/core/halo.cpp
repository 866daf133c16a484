#include "core/halo.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "core/rows.hpp"

namespace advect::core {
namespace {

/// Transverse range (per stage) for the given dimension: lo/hi bounds of the
/// other two dimensions, growing with the stage to carry corners.
struct Transverse {
    int jlo, jhi;  // bounds of the lower-numbered other dimension
    int klo, khi;  // bounds of the higher-numbered other dimension
};

Transverse transverse_for(const Extents3& n, int dim, int depth) {
    switch (dim) {
        case 0:  // x stage: interior j,k
            return {0, n.ny, 0, n.nz};
        case 1:  // y stage: full i, interior k
            return {-depth, n.nx + depth, 0, n.nz};
        default:  // z stage: full i,j
            return {-depth, n.nx + depth, -depth, n.ny + depth};
    }
}

/// Build the Range3 for the slab [c0, c1) in dimension `dim` with transverse
/// bounds `t`.
Range3 slab(int dim, int c0, int c1, const Transverse& t) {
    Range3 r;
    switch (dim) {
        case 0:
            r.lo = {c0, t.jlo, t.klo};
            r.hi = {c1, t.jhi, t.khi};
            break;
        case 1:
            r.lo = {t.jlo, c0, t.klo};
            r.hi = {t.jhi, c1, t.khi};
            break;
        default:
            r.lo = {t.jlo, t.klo, c0};
            r.hi = {t.jhi, t.khi, c1};
            break;
    }
    return r;
}

}  // namespace

HaloPlan HaloPlan::make(Extents3 n, int depth) {
    assert(depth >= 1);
    HaloPlan p;
    p.depth = depth;
    for (int d = 0; d < 3; ++d) {
        const auto t = transverse_for(n, d, depth);
        auto& e = p.dims[static_cast<std::size_t>(d)];
        e.dim = d;
        e.send_low = slab(d, 0, depth, t);
        e.send_high = slab(d, n[d] - depth, n[d], t);
        e.recv_low = slab(d, -depth, 0, t);
        e.recv_high = slab(d, n[d], n[d] + depth, t);
    }
    return p;
}

namespace {

/// Rows of `r`: its x-rows, ny * nz.
std::int64_t rows_of(const Range3& r) {
    const Extents3 e = r.extents();
    return static_cast<std::int64_t>(e.ny) * e.nz;
}

/// Visit rows [lo, hi) of `region` (j fastest, then k) as the runs the copy
/// loops move at once: fn(at, row_at, count, stride) moves the `count`
/// points from storage offset `at` on, `stride` doubles apart, which are
/// points row_at.. of the region in pack order. Rows spanning the padded xy
/// plane lie back to back in storage (the z faces of the serialized
/// exchange): one run. One-point rows (x faces) make one strided run per
/// plane; any other row is a run of its own.
template <class Fn>
void for_each_run(ConstFieldView f, const Range3& region, std::int64_t lo,
                  std::int64_t hi, Fn&& fn) {
    hi = std::min(hi, rows_of(region));
    if (lo >= hi || region.empty()) return;
    const Extents3 e = region.extents();
    const auto row = static_cast<std::size_t>(e.nx);
    const int h = f.halo_width();
    if (region.lo.i == -h && e.nx == f.x_stride() && region.lo.j == -h &&
        e.ny == f.extents().ny + 2 * h) {
        fn(f.offset(-h, -h + static_cast<int>(lo % e.ny),
                    region.lo.k + static_cast<int>(lo / e.ny)),
           static_cast<std::size_t>(lo) * row,
           static_cast<std::size_t>(hi - lo) * row, std::ptrdiff_t{1});
        return;
    }
    RowSpace::for_each_run(region, lo, hi, [&](const RowSpace::Row& r,
                                                int count) {
        std::size_t at = f.offset(r.xlo, r.j, r.k);
        std::size_t row_at = (static_cast<std::size_t>(r.k - region.lo.k) *
                                  static_cast<std::size_t>(e.ny) +
                              static_cast<std::size_t>(r.j - region.lo.j)) *
                             row;
        if (row == 1) {
            fn(at, row_at, static_cast<std::size_t>(count), f.x_stride());
            return;
        }
        for (int q = 0; q < count; ++q, at += f.x_stride(), row_at += row)
            fn(at, row_at, row, std::ptrdiff_t{1});
    });
}

/// dst[q * ds] = src[q * ss] for q < count. Contiguous runs of more than
/// 32 points take a memcpy; shorter ones, such as the x rows of an h-deep
/// halo (h points each), copy faster as a scalar loop (docs/PERF.md §2).
void copy_run(double* dst, std::ptrdiff_t ds, const double* src,
              std::ptrdiff_t ss, std::size_t count) {
    if (ds == 1 && ss == 1 && count > 32) {
        std::memcpy(dst, src, count * sizeof(double));
        return;
    }
    for (std::size_t q = 0; q < count; ++q)
        dst[static_cast<std::ptrdiff_t>(q) * ds] =
            src[static_cast<std::ptrdiff_t>(q) * ss];
}

}  // namespace

void pack(ConstFieldView f, const Range3& region, std::span<double> out,
          std::int64_t lo, std::int64_t hi) {
    assert(out.size() >= region.volume());
    for_each_run(f, region, lo, hi,
                 [&](std::size_t at, std::size_t row_at, std::size_t count,
                     std::ptrdiff_t stride) {
                     copy_run(out.data() + row_at, 1, f.data() + at, stride,
                              count);
                 });
}

std::vector<double> pack(ConstFieldView f, const Range3& region) {
    std::vector<double> buf(region.volume());
    pack(f, region, buf);
    return buf;
}

void unpack(FieldView f, const Range3& region, std::span<const double> in,
            std::int64_t lo, std::int64_t hi) {
    assert(in.size() >= region.volume());
    for_each_run(f, region, lo, hi,
                 [&](std::size_t at, std::size_t row_at, std::size_t count,
                     std::ptrdiff_t stride) {
                     copy_run(f.data() + at, stride, in.data() + row_at, 1,
                              count);
                 });
}

std::int64_t periodic_halo_rows(Extents3 n, int dim, int depth) {
    // The low and high receive slabs have the same extents.
    return 2 * rows_of(HaloPlan::make(n, depth)
                           .dims[static_cast<std::size_t>(dim)]
                           .recv_low);
}

void fill_periodic_halo_rows(FieldView f, int dim, int depth, std::int64_t lo,
                             std::int64_t hi) {
    const Extents3 n = f.extents();
    assert(depth <= f.halo_width() && depth <= n[dim]);
    const HaloPlan plan = HaloPlan::make(n, depth);
    const DimExchange& e = plan.dims[static_cast<std::size_t>(dim)];
    const std::int64_t half = rows_of(e.recv_low);
    // A halo point's periodic source lies n[dim] planes inward: the low
    // halo [-d, 0) reads [n-d, n), the high halo [n, n+d) reads [0, d).
    const std::ptrdiff_t shift =
        n[dim] * (dim == 0 ? 1 : (dim == 1 ? f.x_stride() : f.xy_stride()));
    const auto copy_slab = [&](const Range3& slab, std::ptrdiff_t to_src,
                               std::int64_t a, std::int64_t b) {
        for_each_run(f, slab, a, b,
                     [&](std::size_t at, std::size_t, std::size_t count,
                         std::ptrdiff_t stride) {
                         double* dst = f.data() + at;
                         copy_run(dst, stride, dst + to_src, stride, count);
                     });
    };
    copy_slab(e.recv_low, shift, lo, std::min(hi, half));
    copy_slab(e.recv_high, -shift, std::max(lo, half) - half,
              std::min(hi, 2 * half) - half);
}

void fill_periodic_halo_dim(Field3& f, int dim, int depth) {
    if (depth == 0) depth = f.halo_width();
    const auto plan = HaloPlan::make(f.extents(), depth);
    const auto& e = plan.dims[static_cast<std::size_t>(dim)];
    // Low halo <- high boundary slab; high halo <- low boundary slab.
    auto buf = pack(f, e.send_high);
    unpack(f, e.recv_low, buf);
    pack(f, e.send_low, buf);
    unpack(f, e.recv_high, buf);
}

void fill_periodic_halo(Field3& f, int depth) {
    for (int d = 0; d < 3; ++d) fill_periodic_halo_dim(f, d, depth);
}

void wrap_periodic_row(FieldView f, int j, int k) {
    const Extents3 n = f.extents();
    const int h = f.halo_width();
    assert(h <= n.nx && h <= n.ny && h <= n.nz);
    // x images: [0, h) wraps to [nx, nx + h), [nx - h, nx) to [-h, 0).
    double* row = f.ptr(0, j, k);
    for (int i = 0; i < h; ++i) {
        row[n.nx + i] = row[i];
        row[i - h] = row[n.nx - h + i];
    }

    // y/z images: a coordinate c within h of its low face also appears at
    // c + n, within h of its high face at c - n (both when n == h).
    const auto images = [h](int c, int nc, int (&out)[3]) {
        int m = 0;
        out[m++] = c;
        if (c < h) out[m++] = c + nc;
        if (c >= nc - h) out[m++] = c - nc;
        return m;
    };
    int js[3];
    int ks[3];
    const int nj = images(j, n.ny, js);
    const int nk = images(k, n.nz, ks);
    const std::size_t padded =
        static_cast<std::size_t>(f.x_stride()) * sizeof(double);
    for (int b = 0; b < nk; ++b)
        for (int a = 0; a < nj; ++a)
            if (a != 0 || b != 0)
                std::memcpy(f.ptr(-h, js[a], ks[b]), f.ptr(-h, j, k), padded);
}

}  // namespace advect::core
