#include "impl/device_field.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "core/fused.hpp"
#include "core/halo.hpp"
#include "core/stencil.hpp"

namespace advect::impl {

void upload_coefficients(gpu::Device& device, const core::StencilCoeffs& a) {
    device.set_constants(a.a);
}

namespace {

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
    const auto e = region.extents();
    const gpu::Dim3 grid{(e.nx + bx - 1) / bx, (e.ny + by - 1) / by, 1};
    // Widest fringe: level 0 stages rows 2*fuse wider than the write set
    // (the halo threads of a (bx+2) x (by+2) block at fuse 1).
    const gpu::Dim3 block{bx + 2 * fuse, by + 2 * fuse, 1};
    // Rotating staging planes per level: level s (s steps ahead of the
    // input) keeps three xy planes of extent (bx + 2*(fuse-s)) x
    // (by + 2*(fuse-s)); level `fuse` rows go straight to global memory.
    std::vector<std::size_t> plane_off(static_cast<std::size_t>(fuse));
    std::size_t shared_doubles = 0;
    for (int s = 0; s < fuse; ++s) {
        plane_off[static_cast<std::size_t>(s)] = shared_doubles;
        shared_doubles += 3 *
                          static_cast<std::size_t>(bx + 2 * (fuse - s)) *
                          static_cast<std::size_t>(by + 2 * (fuse - s));
    }

    auto consts = device.constants();
    auto src = in.buffer().span();
    auto dst = out.buffer().span();
    // Copies hold the buffer handles alive until the op has run, and carry
    // the extents for offset math.
    const DeviceField in_layout = in;
    const DeviceField out_hold = out;
    const std::ptrdiff_t out_pitch = in.extents().nx + 2 * in.halo_width();

    stream.launch(grid, block, shared_doubles, [=, lo = region.lo,
                                                hi = region.hi](
                                                   gpu::Dim3 bidx, gpu::Dim3,
                                                   std::span<double> shared) {
        (void)out_hold;  // keeps the output buffer alive until the op runs
        const int x0 = lo.i + bidx.x * bx;  // first computed x of this block
        const int y0 = lo.j + bidx.y * by;
        const int cx = std::min(bx, hi.i - x0);  // computed extent
        const int cy = std::min(by, hi.j - y0);
        const auto pitch = [&](int s) { return bx + 2 * (fuse - s); };
        const auto plane_size = [&](int s) {
            return static_cast<std::size_t>(pitch(s)) *
                   static_cast<std::size_t>(by + 2 * (fuse - s));
        };
        // Shared-memory base of level s's staging plane holding global z
        // plane `z` (each level reuses its three planes as the z wavefront
        // advances).
        const auto level_base = [&](int s, int z) {
            return shared.data() + plane_off[static_cast<std::size_t>(s)] +
                   static_cast<std::size_t>(core::ring_slot(z)) * plane_size(s);
        };

        // Plans from constant memory, compacted like the CPU paths' (a
        // Courant-1 table runs one term): level s reads level s-1's slots,
        // whose dk = ±1 planes sit at rotation-dependent distances, so each
        // level has one plan per rotation phase — built once per block.
        core::StencilCoeffs a;
        std::copy_n(consts.begin(), 27, a.a.begin());
        std::vector<std::array<core::StencilPlan, 3>> plans;
        plans.reserve(static_cast<std::size_t>(fuse));
        for (int s = 1; s <= fuse; ++s)
            plans.push_back(core::rotation_plans(
                a, pitch(s - 1),
                static_cast<std::ptrdiff_t>(plane_size(s - 1))));

        // Advance plane t of level s from level s-1's planes t-1, t, t+1:
        // one plane call of the same row kernel as the CPU paths, so the
        // result is bitwise identical to core::stencil_point.
        const auto compute_level = [&](int s, int t) {
            const int gdst = fuse - s;
            const int wx = cx + 2 * gdst;
            const int wy = cy + 2 * gdst;
            const double* from = level_base(s - 1, t) + pitch(s - 1) + 1;
            double* to = s == fuse ? dst.data() + in_layout.offset(x0, y0, t)
                                   : level_base(s, t);
            const std::ptrdiff_t to_pitch = s == fuse ? out_pitch : pitch(s);
            core::apply_stencil_plane_ptr(
                plans[static_cast<std::size_t>(s - 1)]
                     [static_cast<std::size_t>(core::ring_slot(t))],
                from, to, wx, wy, pitch(s - 1), to_pitch);
            if (msrc.active())
                core::add_source_plane(to, to_pitch, wx, wy,
                                       msrc.origin.i + x0 - gdst,
                                       msrc.origin.j + y0 - gdst,
                                       msrc.origin.k + t, msrc.level + s - 1,
                                       msrc.field);
        };

        // z wavefront: as input plane z is staged (halo rows included), each
        // level s can advance its plane z - s (its three source planes are
        // the level s-1 slots still resident), and level `fuse` streams
        // finished planes out.
        for (int z = lo.k - fuse; z < hi.k + fuse; ++z) {
            stage_plane(src.data(), in_layout, level_base(0, z), pitch(0),
                        x0 - fuse, y0 - fuse, cx + 2 * fuse, cy + 2 * fuse, z);
            for (int s = 1; s <= fuse; ++s) {
                const int t = z - s;
                const int gdst = fuse - s;
                if (t >= lo.k - gdst && t < hi.k + gdst) compute_level(s, t);
            }
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
                          int depth, unsigned open,
                          const std::array<core::BoundaryKind, 6>& faces,
                          const core::BoundaryField& bf,
                          const core::Index3& origin, int level) {
    const unsigned lo_bit = 1u << (2 * dim);
    const unsigned hi_bit = 1u << (2 * dim + 1);
    if ((open & (lo_bit | hi_bit)) == 0) return;
    const auto n = f.extents();
    const auto plan = core::HaloPlan::make(n, depth);
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
