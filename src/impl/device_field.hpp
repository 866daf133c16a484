#pragma once
/// \file device_field.hpp
/// Device-resident halo-padded fields and the CUDA-style kernels the GPU
/// implementations (§IV-E..I) launch. A simulated kernel is an ordinary
/// function on the device's executor thread, so every kernel but one is a
/// single stream launch around the core routine the host runs on a Field3:
/// core::pack and core::unpack stage strided face regions into contiguous
/// buffers so PCIe traffic moves in large chunks (§IV-F),
/// core::fill_periodic_halo_rows and core::fill_boundary_dim fill the halo,
/// and core::apply_stencil_var_rows and core::apply_stencil_chain_rows
/// sweep rows. Each kernel builds a core::FieldView over its buffer, so one
/// module owns the padded layout and every copy, fill and sweep algorithm.
///
/// The one device-specific kernel is §IV-E's shared-memory tile, the
/// unfused constant-coefficient launch_stencil (after Micikevicius [6],
/// extended to the full 27-point stencil by keeping three rotating xy tile
/// planes). It does no arithmetic of its own either: it stages each tile
/// row with one contiguous copy and hands every tile plane to
/// core::apply_stencil_plane_ptr with a compacted StencilPlan, the vector
/// row kernel every CPU sweep runs (docs/PERF.md §2).

#include <array>

#include "core/boundary.hpp"
#include "core/coeff_cache.hpp"
#include "core/coefficients.hpp"
#include "core/field.hpp"
#include "core/source.hpp"
#include "gpu/device.hpp"

namespace advect::impl {

/// A device buffer with Field3's padded layout (extents n, halo width
/// `halo`, x fastest). Temporal blocking allocates halo = fuse so one
/// fuse-deep upload feeds a whole fused super-step.
class DeviceField {
  public:
    DeviceField(gpu::Device& device, core::Extents3 n, int halo = 1)
        : n_(n),
          h_(halo),
          buf_(device.alloc(core::ConstFieldView(nullptr, n, halo)
                                .storage_size())) {}

    [[nodiscard]] core::Extents3 extents() const { return n_; }
    [[nodiscard]] int halo_width() const { return h_; }
    [[nodiscard]] gpu::DeviceBuffer& buffer() { return buf_; }
    [[nodiscard]] const gpu::DeviceBuffer& buffer() const { return buf_; }

    /// The padded layout over the device buffer, for kernel bodies; host
    /// code moves data only through stream copies.
    [[nodiscard]] core::FieldView view() {
        return {buf_.span().data(), n_, h_};
    }
    [[nodiscard]] core::ConstFieldView view() const {
        return {buf_.span().data(), n_, h_};
    }

  private:
    core::Extents3 n_{};
    int h_ = 1;
    gpu::DeviceBuffer buf_;
};

/// Upload the stencil coefficients to the device's constant memory
/// ("the a_ijk values are in GPU constant memory", §IV-E).
inline void upload_coefficients(gpu::Device& device,
                                const core::StencilCoeffs& a) {
    device.set_constants(a.a);
}

/// Launch the stencil kernel over `region` of the padded field, advancing
/// it `fuse` steps (1 = one plain Equation 2 update). At fuse 1 it is the
/// paper's shared-memory tile: (bx+2) x (by+2) thread blocks whose fringe
/// are halo threads that only stage the tile, and three shared xy planes
/// (z-1, z, z+1) rotating as threads iterate z. Each plane is staged with
/// one contiguous copy per tile row, clamped to the padded bounds, and
/// computed by one plane call of the CPU paths' row kernel with a plan
/// compacted from the device's constant memory (a Courant-1 table runs one
/// term), so the result is bitwise-identical to core::apply_stencil. An
/// active `src` adds Q at time level src.base_level, like the CPU row
/// epilogue. At fuse > 1 (single-term coefficients and no source: the only
/// fused jobs impl::plan_job admits) it is one launch of
/// core::apply_stencil_chain_rows over `region`; the halos of `in`
/// covering region+fuse must be valid (halo_width() >= fuse).
void launch_stencil(gpu::Stream& stream, gpu::Device& device,
                    const DeviceField& in, DeviceField& out,
                    const core::Range3& region, int bx, int by,
                    const core::FusedSource& src = {}, int fuse = 1);

/// Launch core::apply_stencil_var_rows over `region` — the CPU variable
/// path's row sweep, bitwise-identical to core::stencil_var_point — with
/// its source epilogue. No shared-memory tiling: the per-cell coefficient
/// stream (27 doubles/cell) dominates traffic, so the constant path's tile
/// reuse does not apply. `cache` is captured by pointer — it is built once
/// at rank setup and outlives every stream drain of the run.
void launch_stencil_var(gpu::Stream& stream, const DeviceField& in,
                        DeviceField& out, const core::Range3& region,
                        const core::CoeffCache& cache,
                        const core::FusedSource& src = {});

/// Launch core::fill_periodic_halo_rows, stage `dim` of a periodic halo
/// fill `depth` deep, on a device field whose extents equal the global
/// domain (the GPU-resident case).
void launch_periodic_halo(gpu::Stream& stream, DeviceField& f, int dim,
                          int depth = 1);

/// Launch core::fill_boundary_dim on a device field (the §IV-E resident
/// case with open faces), right after that dimension's periodic halo
/// kernel. Its arguments are captured by value; `level` is the base time
/// level at enqueue time.
void launch_boundary_fill(gpu::Stream& stream, DeviceField& f, int dim,
                          unsigned open,
                          const std::array<core::BoundaryKind, 6>& faces,
                          const core::BoundaryField& bf,
                          const core::Index3& origin, int level);

/// Launch core::pack of `region` into `staging` from `offset` on, so host-
/// and device-side staging interoperate.
void launch_pack(gpu::Stream& stream, const DeviceField& f,
                 const core::Range3& region, gpu::DeviceBuffer& staging,
                 std::size_t offset);

/// Launch core::unpack, the inverse of launch_pack.
void launch_unpack(gpu::Stream& stream, DeviceField& f,
                   const core::Range3& region, const gpu::DeviceBuffer& staging,
                   std::size_t offset);

}  // namespace advect::impl
