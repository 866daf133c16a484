#include "core/fused.hpp"

#include <algorithm>
#include <cassert>

#include "core/box_partition.hpp"

namespace advect::core {

namespace {

/// Scratch doubles for a tile of x/y extents (tx, ty) at fuse factor F:
/// each of the F-1 intermediate levels keeps a rotating ring of 3 z-planes,
/// every plane a uniform (tx + 2g) x (ty + 2g) slab (g = F-1). The z extent
/// of the tile never enters — the wavefront pipeline retires planes as it
/// advances — so tiles only ever shrink in x and y.
std::size_t scratch_for(int tx, int ty, int fuse) {
    if (fuse <= 1) return 0;
    const int g = fuse - 1;
    return static_cast<std::size_t>(3 * (fuse - 1)) *
           static_cast<std::size_t>(tx + 2 * g) *
           static_cast<std::size_t>(ty + 2 * g);
}

}  // namespace

std::array<StencilPlan, 3> rotation_plans(const StencilCoeffs& a,
                                          std::ptrdiff_t x_stride,
                                          std::ptrdiff_t plane) {
    std::array<StencilPlan, 3> plans;
    for (int p = 0; p < 3; ++p)
        plans[static_cast<std::size_t>(p)] =
            StencilPlan::make(a, x_stride,
                              {(ring_slot(p + 2) - p) * plane, 0,
                               (ring_slot(p + 1) - p) * plane});
    return plans;
}

std::size_t fused_point_count(const std::vector<Range3>& regions, int fuse) {
    std::size_t pts = 0;
    for (const Range3& r : regions)
        for (int s = 1; s <= fuse; ++s) pts += expand(r, fuse - s).volume();
    return pts;
}

FusedSweepPlan::FusedSweepPlan(const std::vector<Range3>& regions, int fuse,
                               std::size_t cache_bytes)
    : fuse_(fuse) {
    assert(fuse >= 1);
    for (const Range3& region : regions) {
        if (region.empty()) continue;
        const Extents3 e = region.extents();
        // Choose the tile shape: start at the whole region and halve the
        // y extent, then x (rows last, so the row kernel keeps long
        // contiguous runs) until the ring working set fits the budget. The
        // z extent is free — the plane pipeline never holds more than
        // 3 planes per level.
        int tx = e.nx, ty = e.ny;
        while (scratch_for(tx, ty, fuse) * sizeof(double) > cache_bytes &&
               (tx > 1 || ty > 1)) {
            if (ty >= tx && ty > 1)
                ty = (ty + 1) / 2;
            else
                tx = (tx + 1) / 2;
        }
        scratch_ = std::max(scratch_, scratch_for(tx, ty, fuse));
        for (int j = region.lo.j; j < region.hi.j; j += ty)
            for (int i = region.lo.i; i < region.hi.i; i += tx)
                tiles_.push_back({{{i, j, region.lo.k},
                                   {std::min(i + tx, region.hi.i),
                                    std::min(j + ty, region.hi.j),
                                    region.hi.k}}});
    }
}

void apply_fused_tile(const StencilCoeffs& a, const Field3& in, Field3& out,
                      const Range3& tile, int fuse, std::span<double> scratch,
                      const FusedSource* src) {
    assert(fuse >= 1);
    if (tile.empty()) return;
    if (src != nullptr && !src->field.active()) src = nullptr;
    const StencilPlan from_field =
        StencilPlan::make(a, in.x_stride(), in.xy_stride());
    if (fuse == 1) {
        const int row = tile.hi.i - tile.lo.i;
        const int rows = tile.hi.j - tile.lo.j;
        for (int k = tile.lo.k; k < tile.hi.k; ++k) {
            apply_stencil_plane_ptr(from_field,
                                    in.ptr(tile.lo.i, tile.lo.j, k),
                                    out.ptr(tile.lo.i, tile.lo.j, k), row,
                                    rows, in.x_stride(), out.x_stride());
            if (src != nullptr)
                add_source_plane(out.ptr(tile.lo.i, tile.lo.j, k),
                                 out.x_stride(), row, rows,
                                 src->origin.i + tile.lo.i,
                                 src->origin.j + tile.lo.j,
                                 src->origin.k + k, src->base_level,
                                 src->field);
        }
        return;
    }
    if (from_field.terms == 1 && src == nullptr) {
        // Single surviving term (e.g. Courant-1 coefficients): each point of
        // each level depends on exactly one point of the level below, so the
        // halo pyramid degenerates to a line and the full F-step chain runs
        // in registers — no ring, no redundant halo compute, one read and
        // one write per point per F steps (see apply_stencil_chain_ptr for
        // the bitwise argument). An active source needs per-level adds the
        // collapsed chain cannot carry, so it falls through to the ring
        // pipeline below.
        const int row = tile.hi.i - tile.lo.i;
        const int rows = tile.hi.j - tile.lo.j;
        for (int k = tile.lo.k; k < tile.hi.k; ++k)
            apply_stencil_chain_ptr(from_field, fuse,
                                    in.ptr(tile.lo.i, tile.lo.j, k),
                                    out.ptr(tile.lo.i, tile.lo.j, k), row,
                                    rows, in.x_stride(), out.x_stride());
        return;
    }

    // Wavefront pipeline over z: level s lives on expand(tile, fuse - s) and
    // lags level s-1 by one plane, so each of the F-1 intermediate levels
    // only ever holds the 3 planes its consumer reads — a rotating ring of
    // uniform (tx + 2g) x (ty + 2g) slabs, the CPU mirror of the simulated
    // GPU's rotating shared staging planes. The staggered z ranges line up
    // exactly: when level 1 produces its last plane (hi.k + g - 1), level s
    // retires its last plane (hi.k + (F-s) - 1) in the same sweep step, so
    // there is no separate drain phase.
    const int g = fuse - 1;
    const Extents3 te = tile.extents();
    const std::ptrdiff_t sx = te.nx + 2 * g;
    const std::ptrdiff_t plane = sx * (te.ny + 2 * g);
    assert(scratch.size() >=
           static_cast<std::size_t>(3 * (fuse - 1)) *
               static_cast<std::size_t>(plane));
    // Ring base of intermediate level s (1-based): 3 plane slabs each.
    auto ring = [&](int s) { return scratch.data() + (s - 1) * 3 * plane; };
    // Slab offset of the global point (i, j): tile.lo maps to local g.
    auto pidx = [&](int i, int j) {
        return static_cast<std::ptrdiff_t>(i - tile.lo.i + g) +
               sx * (j - tile.lo.j + g);
    };
    const std::array<StencilPlan, 3> from_ring = rotation_plans(a, sx, plane);

    for (int z1 = tile.lo.k - g; z1 < tile.hi.k + g; ++z1) {
        // Level 1: field -> ring, on expand(tile, g) in x/y.
        {
            double* dst = ring(1) + ring_slot(z1) * plane +
                          pidx(tile.lo.i - g, tile.lo.j - g);
            apply_stencil_plane_ptr(
                from_field, in.ptr(tile.lo.i - g, tile.lo.j - g, z1), dst,
                te.nx + 2 * g, te.ny + 2 * g, in.x_stride(), sx);
            if (src != nullptr)
                add_source_plane(dst, sx, te.nx + 2 * g, te.ny + 2 * g,
                                 src->origin.i + tile.lo.i - g,
                                 src->origin.j + tile.lo.j - g,
                                 src->origin.k + z1, src->base_level,
                                 src->field);
        }
        // Levels 2..F consume the plane cascade: level s can retire plane
        // z1 - (s-1) now that level s-1 has produced planes up to z1.
        for (int s = 2; s <= fuse; ++s) {
            const int zs = z1 - (s - 1);
            const int d = fuse - s;  // remaining ghost depth of level s
            if (zs < tile.lo.k - d || zs >= tile.hi.k + d) continue;
            const StencilPlan& rp =
                from_ring[static_cast<std::size_t>(ring_slot(zs))];
            const double* from = ring(s - 1) + ring_slot(zs) * plane;
            if (s == fuse) {
                apply_stencil_plane_ptr(rp, from + pidx(tile.lo.i, tile.lo.j),
                                        out.ptr(tile.lo.i, tile.lo.j, zs),
                                        te.nx, te.ny, sx, out.x_stride());
                if (src != nullptr)
                    add_source_plane(out.ptr(tile.lo.i, tile.lo.j, zs),
                                     out.x_stride(), te.nx, te.ny,
                                     src->origin.i + tile.lo.i,
                                     src->origin.j + tile.lo.j,
                                     src->origin.k + zs,
                                     src->base_level + s - 1, src->field);
            } else {
                double* dst = ring(s) + ring_slot(zs) * plane +
                              pidx(tile.lo.i - d, tile.lo.j - d);
                apply_stencil_plane_ptr(
                    rp, from + pidx(tile.lo.i - d, tile.lo.j - d), dst,
                    te.nx + 2 * d, te.ny + 2 * d, sx, sx);
                if (src != nullptr)
                    add_source_plane(dst, sx, te.nx + 2 * d, te.ny + 2 * d,
                                     src->origin.i + tile.lo.i - d,
                                     src->origin.j + tile.lo.j - d,
                                     src->origin.k + zs,
                                     src->base_level + s - 1, src->field);
            }
        }
    }
}

void apply_fused_sweep(const StencilCoeffs& a, const Field3& in, Field3& out,
                       const FusedSweepPlan& plan, std::span<double> scratch,
                       const FusedSource* src) {
    for (const FusedTile& t : plan.tiles())
        apply_fused_tile(a, in, out, t.out, plan.fuse(), scratch, src);
}

}  // namespace advect::core
