#include "impl/device_field.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <functional>

#include "core/halo.hpp"
#include "core/rows.hpp"
#include "core/stencil.hpp"

namespace advect::impl {

namespace {

/// Slot of z plane `z` in a rotating ring of three plane slabs (z may be
/// negative near the halo).
int ring_slot(int z) { return ((z % 3) + 3) % 3; }

/// The three rotation-phase plans for reading such a ring — row pitch
/// `x_stride`, slabs `plane` doubles apart: phase p (the ring slot of the
/// centre plane) finds its dk = ±1 planes in slots (p ± 1) mod 3.
std::array<core::StencilPlan, 3> rotation_plans(const core::StencilCoeffs& a,
                                                std::ptrdiff_t x_stride,
                                                std::ptrdiff_t plane) {
    std::array<core::StencilPlan, 3> plans;
    for (int p = 0; p < 3; ++p)
        plans[static_cast<std::size_t>(p)] = core::StencilPlan::make(
            a, x_stride,
            {(ring_slot(p + 2) - p) * plane, 0, (ring_slot(p + 1) - p) * plane});
    return plans;
}

/// The stencil coefficients as a kernel reads them from constant memory.
core::StencilCoeffs constant_coeffs(std::span<const double> consts) {
    core::StencilCoeffs a;
    std::copy_n(consts.begin(), 27, a.a.begin());
    return a;
}

/// Stage rows [y0, y0 + h) x [x0, x0 + w) of z plane `z` of the padded
/// field `in` into `tile` (row pitch `pitch`, tile (0, 0) = (x0, y0)): one
/// contiguous copy of each row's x-run, clamped to the padded bounds so an
/// edge block never reads outside the allocation.
void stage_plane(core::ConstFieldView in, double* tile, int pitch, int x0,
                 int y0, int w, int h, int z) {
    const auto n = in.extents();
    const int hw = in.halo_width();
    const int xlo = std::max(x0, -hw);
    const int xhi = std::min(x0 + w, n.nx + hw);
    const int ylo = std::max(y0, -hw);
    const int yhi = std::min(y0 + h, n.ny + hw);
    if (xlo >= xhi) return;
    const std::size_t bytes = static_cast<std::size_t>(xhi - xlo) *
                              sizeof(double);
    for (int gy = ylo; gy < yhi; ++gy)
        std::memcpy(tile + static_cast<std::size_t>(gy - y0) * pitch +
                        (xlo - x0),
                    in.ptr(xlo, gy, z), bytes);
}

/// The one-block launch every memory-bound kernel uses: `body` runs once
/// on the device's executor thread.
void launch_single(gpu::Stream& stream, std::function<void()> body) {
    stream.launch({1, 1, 1}, {1, 1, 1}, 0,
                  [body = std::move(body)](gpu::Dim3, gpu::Dim3,
                                           std::span<double>) { body(); });
}

}  // namespace

void launch_stencil(gpu::Stream& stream, gpu::Device& device,
                    const DeviceField& in, DeviceField& out,
                    const core::Range3& region, int bx, int by,
                    const core::FusedSource& msrc, int fuse) {
    assert(in.extents() == out.extents());
    assert(fuse >= 1);
    if (region.empty()) return;
    assert(in.halo_width() >= fuse && out.halo_width() >= fuse);
    auto consts = device.constants();

    if (fuse > 1) {
        // The register chain (single-term coefficients, no source: the
        // only fused jobs impl::plan_job admits) needs no staging, so the
        // kernel is the host's fused row sweep.
        assert(!msrc.field.active());
        launch_single(stream, [=, out = out,
                               rows = core::RowSpace({region})]() mutable {
            core::apply_stencil_chain_rows(constant_coeffs(consts), in.view(),
                                           out.view(), rows, 0, rows.size(),
                                           fuse);
        });
        return;
    }

    const auto e = region.extents();
    const gpu::Dim3 grid{(e.nx + bx - 1) / bx, (e.ny + by - 1) / by, 1};
    // The paper's (bx+2) x (by+2) block: the fringe are halo threads that
    // only stage the tile, and three shared xy planes rotate through z.
    const gpu::Dim3 block{bx + 2, by + 2, 1};
    const int tpitch = bx + 2;
    const std::ptrdiff_t tplane = static_cast<std::ptrdiff_t>(tpitch) * (by + 2);

    // The copies of `in` and `out` hold both buffers alive until the op has
    // run.
    stream.launch(grid, block, static_cast<std::size_t>(3 * tplane),
                  [=, out = out](gpu::Dim3 bidx, gpu::Dim3,
                                 std::span<double> shared) mutable {
        const core::ConstFieldView src = in.view();
        const core::FieldView dst = out.view();
        const core::Index3 lo = region.lo;
        const core::Index3 hi = region.hi;
        const int x0 = lo.i + bidx.x * bx;  // first computed x of this block
        const int y0 = lo.j + bidx.y * by;
        const int cx = std::min(bx, hi.i - x0);  // computed extent
        const int cy = std::min(by, hi.j - y0);
        // Shared-memory plane holding global z plane `z`.
        const auto slot = [&](int z) {
            return shared.data() + ring_slot(z) * tplane;
        };
        // Plans from constant memory, compacted like the CPU paths' (a
        // Courant-1 table runs one term): the dk = ±1 planes sit at
        // rotation-dependent distances, so one plan per rotation phase,
        // built once per block.
        const auto plans =
            rotation_plans(constant_coeffs(consts), tpitch, tplane);

        // z wavefront: once input plane z is staged (halo rows included),
        // plane z - 1 has its three source planes resident and is written
        // straight to `out` by one plane call of the CPU paths' row kernel,
        // so the result is bitwise identical to core::stencil_point.
        for (int z = lo.k - 1; z <= hi.k; ++z) {
            stage_plane(src, slot(z), tpitch, x0 - 1, y0 - 1, cx + 2, cy + 2,
                        z);
            const int t = z - 1;
            if (t < lo.k) continue;
            double* to = dst.ptr(x0, y0, t);
            core::apply_stencil_plane_ptr(
                plans[static_cast<std::size_t>(ring_slot(t))],
                slot(t) + tpitch + 1, to, cx, cy, tpitch, dst.x_stride());
            if (msrc.field.active())
                core::add_source_plane(to, dst.x_stride(), cx, cy,
                                       msrc.origin.i + x0, msrc.origin.j + y0,
                                       msrc.origin.k + t, msrc.base_level,
                                       msrc.field);
        }
    });
}

void launch_stencil_var(gpu::Stream& stream, const DeviceField& in,
                        DeviceField& out, const core::Range3& region,
                        const core::CoeffCache& cache,
                        const core::FusedSource& msrc) {
    assert(in.extents() == out.extents());
    if (region.empty()) return;
    launch_single(stream, [=, out = out, rows = core::RowSpace({region}),
                           c = &cache]() mutable {
        core::apply_stencil_var_rows(*c, in.view(), out.view(), rows, 0,
                                     rows.size(), &msrc);
    });
}

void launch_periodic_halo(gpu::Stream& stream, DeviceField& f, int dim,
                          int depth) {
    launch_single(stream, [=, f = f]() mutable {
        core::fill_periodic_halo_rows(f.view(), dim, depth);
    });
}

void launch_boundary_fill(gpu::Stream& stream, DeviceField& f, int dim,
                          unsigned open,
                          const std::array<core::BoundaryKind, 6>& faces,
                          const core::BoundaryField& bf,
                          const core::Index3& origin, int level) {
    launch_single(stream, [=, f = f]() mutable {
        core::fill_boundary_dim(f.view(), dim, open, faces, bf, origin, level);
    });
}

void launch_pack(gpu::Stream& stream, const DeviceField& f,
                 const core::Range3& region, gpu::DeviceBuffer& staging,
                 std::size_t offset) {
    assert(offset + region.volume() <= staging.size());
    launch_single(stream, [=, staging = staging]() mutable {
        core::pack(f.view(), region,
                   staging.span().subspan(offset, region.volume()));
    });
}

void launch_unpack(gpu::Stream& stream, DeviceField& f,
                   const core::Range3& region, const gpu::DeviceBuffer& staging,
                   std::size_t offset) {
    assert(offset + region.volume() <= staging.size());
    launch_single(stream, [=, f = f]() mutable {
        core::unpack(f.view(), region,
                     staging.span().subspan(offset, region.volume()));
    });
}

}  // namespace advect::impl
