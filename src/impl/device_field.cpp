#include "impl/device_field.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "core/halo.hpp"
#include "core/stencil.hpp"

namespace advect::impl {

void upload_coefficients(gpu::Device& device, const core::StencilCoeffs& a) {
    device.set_constants(a.a);
}

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

/// Stage rows [y0, y0 + h) x [x0, x0 + w) of z plane `z` of `layout`'s
/// padded field into `tile` (row pitch `pitch`, tile (0, 0) = (x0, y0)):
/// one contiguous copy of each row's x-run, clamped to the padded bounds so
/// an edge block never reads outside the allocation.
void stage_plane(const double* src, const DeviceField& layout, double* tile,
                 int pitch, int x0, int y0, int w, int h, int z) {
    const auto n = layout.extents();
    const int hw = layout.halo_width();
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
                    src + layout.offset(xlo, gy, z), bytes);
}

}  // namespace

void launch_stencil(gpu::Stream& stream, gpu::Device& device,
                    const DeviceField& in, DeviceField& out,
                    const core::Range3& region, int bx, int by,
                    const GpuSource& msrc, int fuse) {
    assert(in.extents() == out.extents());
    assert(fuse >= 1);
    if (region.empty()) return;
    assert(in.halo_width() >= fuse && out.halo_width() >= fuse);
    auto consts = device.constants();
    auto src = in.buffer().span();
    auto dst = out.buffer().span();
    // Copies hold the buffer handles alive until the op has run, and carry
    // the extents for offset math.
    const DeviceField in_layout = in;
    const DeviceField out_hold = out;
    const std::ptrdiff_t pitch = in.extents().nx + 2 * in.halo_width();

    if (fuse > 1) {
        // The register chain (single-term coefficients, no source: the
        // only fused jobs impl::plan_job admits) needs no staging: like
        // launch_stencil_var, one memory-bound block streams each plane's
        // rows straight from the padded layout.
        assert(!msrc.active());
        const std::ptrdiff_t plane =
            pitch * (in.extents().ny + 2 * in.halo_width());
        stream.launch({1, 1, 1}, {1, 1, 1}, 0, [=](gpu::Dim3, gpu::Dim3,
                                                   std::span<double>) {
            (void)out_hold;
            const core::StencilPlan plan =
                core::StencilPlan::make(constant_coeffs(consts), pitch, plane);
            const auto e = region.extents();
            for (int k = region.lo.k; k < region.hi.k; ++k) {
                const std::size_t at =
                    in_layout.offset(region.lo.i, region.lo.j, k);
                core::apply_stencil_chain_ptr(plan, fuse, src.data() + at,
                                              dst.data() + at, e.nx, e.ny,
                                              pitch, pitch);
            }
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

    stream.launch(grid, block, static_cast<std::size_t>(3 * tplane),
                  [=](gpu::Dim3 bidx, gpu::Dim3, std::span<double> shared) {
        (void)out_hold;  // keeps the output buffer alive until the op runs
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
            stage_plane(src.data(), in_layout, slot(z), tpitch, x0 - 1,
                        y0 - 1, cx + 2, cy + 2, z);
            const int t = z - 1;
            if (t < lo.k) continue;
            double* to = dst.data() + in_layout.offset(x0, y0, t);
            core::apply_stencil_plane_ptr(
                plans[static_cast<std::size_t>(ring_slot(t))],
                slot(t) + tpitch + 1, to, cx, cy, tpitch, pitch);
            if (msrc.active())
                core::add_source_plane(to, pitch, cx, cy, msrc.origin.i + x0,
                                       msrc.origin.j + y0, msrc.origin.k + t,
                                       msrc.level, msrc.field);
        }
    });
}

void launch_stencil_var(gpu::Stream& stream, const DeviceField& in,
                        DeviceField& out, const core::Range3& region,
                        const core::CoeffCache& cache, const GpuSource& msrc) {
    assert(in.extents() == out.extents());
    if (region.empty()) return;
    auto src = in.buffer().span();
    auto dst = out.buffer().span();
    const DeviceField in_layout = in;
    const DeviceField out_hold = out;
    const auto n = in.extents();
    const int hw = in.halo_width();
    const std::ptrdiff_t sj = n.nx + 2 * hw;
    const std::ptrdiff_t sk = sj * (n.ny + 2 * hw);

    // Memory-bound single-block kernel (like the pack/halo kernels): the
    // rows stream straight from the padded global layout through the same
    // vector row kernel as the CPU variable path.
    stream.launch({1, 1, 1}, {1, 1, 1}, 0, [=, c = &cache](
                                               gpu::Dim3, gpu::Dim3,
                                               std::span<double>) {
        (void)out_hold;
        const int cx = region.hi.i - region.lo.i;
        for (int k = region.lo.k; k < region.hi.k; ++k)
            for (int j = region.lo.j; j < region.hi.j; ++j) {
                const std::size_t at = in_layout.offset(region.lo.i, j, k);
                double* out_row = dst.data() + at;
                core::apply_stencil_var_row_ptr(c->row(j, k) + region.lo.i,
                                                c->nx(), src.data() + at,
                                                out_row, cx, sj, sk);
                if (msrc.active())
                    core::add_source_plane(out_row, 0, cx, 1,
                                           msrc.origin.i + region.lo.i,
                                           msrc.origin.j + j,
                                           msrc.origin.k + k, msrc.level,
                                           msrc.field);
            }
    });
}

void launch_periodic_halo(gpu::Stream& stream, DeviceField& f, int dim,
                          int depth) {
    const auto n = f.extents();
    const auto plan = core::HaloPlan::make(n, depth);
    const auto& e = plan.dims[static_cast<std::size_t>(dim)];
    auto data = f.buffer().span();
    const DeviceField layout = f;
    const int shift = n[dim];

    // Copy halo <- opposite boundary for both sides; a single-block kernel
    // (this is a memory-only operation, like the paper's halo threads).
    stream.launch({1, 1, 1}, {1, 1, 1}, 0,
                  [=](gpu::Dim3, gpu::Dim3, std::span<double>) {
                      auto copy = [&](const core::Range3& dst_region, int s) {
                          for (int k = dst_region.lo.k; k < dst_region.hi.k; ++k)
                              for (int j = dst_region.lo.j; j < dst_region.hi.j;
                                   ++j)
                                  for (int i = dst_region.lo.i;
                                       i < dst_region.hi.i; ++i) {
                                      int si = i, sj = j, sk = k;
                                      if (dim == 0) si += s;
                                      else if (dim == 1) sj += s;
                                      else sk += s;
                                      data[layout.offset(i, j, k)] =
                                          data[layout.offset(si, sj, sk)];
                                  }
                      };
                      copy(e.recv_low, shift);    // halo -1 <- plane n-1
                      copy(e.recv_high, -shift);  // halo n <- plane 0
                  });
}

void launch_boundary_fill(gpu::Stream& stream, DeviceField& f, int dim,
                          unsigned open,
                          const std::array<core::BoundaryKind, 6>& faces,
                          const core::BoundaryField& bf,
                          const core::Index3& origin, int level) {
    const unsigned lo_bit = 1u << (2 * dim);
    const unsigned hi_bit = 1u << (2 * dim + 1);
    if ((open & (lo_bit | hi_bit)) == 0) return;
    const auto n = f.extents();
    const auto plan = core::HaloPlan::make(n, 1);
    const auto& e = plan.dims[static_cast<std::size_t>(dim)];
    auto data = f.buffer().span();
    const DeviceField layout = f;

    stream.launch({1, 1, 1}, {1, 1, 1}, 0, [=](gpu::Dim3, gpu::Dim3,
                                               std::span<double>) {
        auto fill = [&](const core::Range3& slab, core::BoundaryKind kind,
                        int edge) {
            for (int k = slab.lo.k; k < slab.hi.k; ++k)
                for (int j = slab.lo.j; j < slab.hi.j; ++j)
                    for (int i = slab.lo.i; i < slab.hi.i; ++i) {
                        if (kind == core::BoundaryKind::Inflow) {
                            data[layout.offset(i, j, k)] =
                                bf.g(origin.i + i, origin.j + j, origin.k + k,
                                     level);
                        } else {
                            const int si = dim == 0 ? edge : i;
                            const int sjj = dim == 1 ? edge : j;
                            const int skk = dim == 2 ? edge : k;
                            data[layout.offset(i, j, k)] =
                                data[layout.offset(si, sjj, skk)];
                        }
                    }
        };
        if (open & lo_bit)
            fill(e.recv_low, faces[static_cast<std::size_t>(2 * dim)], 0);
        if (open & hi_bit)
            fill(e.recv_high, faces[static_cast<std::size_t>(2 * dim + 1)],
                 n[dim] - 1);
    });
}

void launch_pack(gpu::Stream& stream, const DeviceField& f,
                 const core::Range3& region, gpu::DeviceBuffer& staging,
                 std::size_t offset) {
    assert(offset + region.volume() <= staging.size());
    auto src = f.buffer().span();
    auto dst = staging.span();
    const DeviceField layout = f;
    stream.launch({1, 1, 1}, {1, 1, 1}, 0,
                  [=, hold = staging](gpu::Dim3, gpu::Dim3, std::span<double>) {
                      (void)hold;
                      std::size_t idx = offset;
                      for (int k = region.lo.k; k < region.hi.k; ++k)
                          for (int j = region.lo.j; j < region.hi.j; ++j)
                              for (int i = region.lo.i; i < region.hi.i; ++i)
                                  dst[idx++] = src[layout.offset(i, j, k)];
                  });
}

void launch_unpack(gpu::Stream& stream, DeviceField& f,
                   const core::Range3& region, const gpu::DeviceBuffer& staging,
                   std::size_t offset) {
    assert(offset + region.volume() <= staging.size());
    auto src = staging.span();
    auto dst = f.buffer().span();
    const DeviceField layout = f;
    stream.launch({1, 1, 1}, {1, 1, 1}, 0,
                  [=, hold = staging](gpu::Dim3, gpu::Dim3, std::span<double>) {
                      (void)hold;
                      std::size_t idx = offset;
                      for (int k = region.lo.k; k < region.hi.k; ++k)
                          for (int j = region.lo.j; j < region.hi.j; ++j)
                              for (int i = region.lo.i; i < region.hi.i; ++i)
                                  dst[layout.offset(i, j, k)] = src[idx++];
                  });
}

}  // namespace advect::impl
