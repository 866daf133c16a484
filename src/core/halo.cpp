#include "core/halo.hpp"

#include <cassert>
#include <cstring>

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

/// True when `region` spans the full padded xy extent of `f`, i.e. each of
/// its k planes is one contiguous block of xy_stride() doubles.
bool spans_padded_plane(const Field3& f, const Range3& region) {
    const auto n = f.extents();
    const int h = f.halo_width();
    return region.lo.i == -h && region.hi.i == n.nx + h &&
           region.lo.j == -h && region.hi.j == n.ny + h;
}

}  // namespace

void pack(const Field3& f, const Range3& region, std::span<double> out) {
    assert(out.size() >= region.volume());
    if (region.empty()) return;
    double* dst = out.data();
    // Rows are x-contiguous in storage, so pack is a memcpy per (j, k) row —
    // and when the region covers the full padded xy extent (the z faces of
    // the serialized exchange), a single memcpy per k plane.
    if (spans_padded_plane(f, region)) {
        const std::size_t plane = static_cast<std::size_t>(f.xy_stride());
        const int h = f.halo_width();
        for (int k = region.lo.k; k < region.hi.k; ++k, dst += plane)
            std::memcpy(dst, f.ptr(-h, -h, k), plane * sizeof(double));
        return;
    }
    const std::size_t row = static_cast<std::size_t>(region.hi.i - region.lo.i);
    if (row == 1) {
        // x faces: one point per row; a strided scalar loop beats a memcpy
        // call per element.
        for (int k = region.lo.k; k < region.hi.k; ++k)
            for (int j = region.lo.j; j < region.hi.j; ++j)
                *dst++ = f(region.lo.i, j, k);
        return;
    }
    for (int k = region.lo.k; k < region.hi.k; ++k)
        for (int j = region.lo.j; j < region.hi.j; ++j, dst += row)
            std::memcpy(dst, f.ptr(region.lo.i, j, k), row * sizeof(double));
}

std::vector<double> pack(const Field3& f, const Range3& region) {
    std::vector<double> buf(region.volume());
    pack(f, region, buf);
    return buf;
}

void unpack(Field3& f, const Range3& region, std::span<const double> in) {
    assert(in.size() >= region.volume());
    if (region.empty()) return;
    const double* src = in.data();
    if (spans_padded_plane(f, region)) {
        const std::size_t plane = static_cast<std::size_t>(f.xy_stride());
        const int h = f.halo_width();
        for (int k = region.lo.k; k < region.hi.k; ++k, src += plane)
            std::memcpy(f.ptr(-h, -h, k), src, plane * sizeof(double));
        return;
    }
    const std::size_t row = static_cast<std::size_t>(region.hi.i - region.lo.i);
    if (row == 1) {
        for (int k = region.lo.k; k < region.hi.k; ++k)
            for (int j = region.lo.j; j < region.hi.j; ++j)
                f(region.lo.i, j, k) = *src++;
        return;
    }
    for (int k = region.lo.k; k < region.hi.k; ++k)
        for (int j = region.lo.j; j < region.hi.j; ++j, src += row)
            std::memcpy(f.ptr(region.lo.i, j, k), src, row * sizeof(double));
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

void wrap_periodic_row(Field3& f, int j, int k) {
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
        static_cast<std::size_t>(n.nx + 2 * h) * sizeof(double);
    for (int b = 0; b < nk; ++b)
        for (int a = 0; a < nj; ++a)
            if (a != 0 || b != 0)
                std::memcpy(f.ptr(-h, js[a], ks[b]), f.ptr(-h, j, k), padded);
}

}  // namespace advect::core
