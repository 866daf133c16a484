#pragma once
/// \file device_field.hpp
/// Device-resident halo-padded fields and the CUDA-style kernels shared by
/// the GPU implementations (§IV-E..I): the shared-memory-tiled stencil
/// kernel (after Micikevicius [6], extended to the full 27-point stencil by
/// keeping three rotating xy tile planes), periodic-halo kernels, and
/// pack/unpack kernels that stage strided face regions into contiguous
/// buffers so PCIe traffic moves in large chunks (§IV-F).
///
/// The stencil kernels do no arithmetic of their own: the tiled kernel
/// stages each tile row with one contiguous copy and hands every tile plane
/// to core::apply_stencil_plane_ptr with a compacted StencilPlan, the fused
/// kernel hands every plane to core::apply_stencil_chain_ptr, and the
/// variable kernel hands every row to core::apply_stencil_var_row_ptr — the
/// vector row kernels every CPU sweep runs (docs/PERF.md §2).

#include <array>

#include "core/boundary.hpp"
#include "core/coeff_cache.hpp"
#include "core/coefficients.hpp"
#include "core/field.hpp"
#include "core/source.hpp"
#include "gpu/device.hpp"

namespace advect::impl {

/// Manufactured-source context for a stencil launch, captured *by value*
/// into the kernel lambda (stream drains run after the enqueueing call
/// returns, so no reference may escape). `level` is the time level of the
/// kernel's input state, snapshotted at enqueue time. Default-constructed
/// means inactive: no source arithmetic at all.
struct GpuSource {
    core::SourceField field{};
    core::Index3 origin{};
    int level = 0;

    [[nodiscard]] bool active() const { return field.active(); }
};

/// A device buffer with Field3's padded layout (extents n, halo width
/// `halo`, x fastest). Temporal blocking allocates halo = fuse so one
/// fuse-deep upload feeds a whole fused super-step.
class DeviceField {
  public:
    DeviceField() = default;
    DeviceField(gpu::Device& device, core::Extents3 n, int halo = 1)
        : n_(n),
          h_(halo),
          buf_(device.alloc(static_cast<std::size_t>(n.nx + 2 * halo) *
                            static_cast<std::size_t>(n.ny + 2 * halo) *
                            static_cast<std::size_t>(n.nz + 2 * halo))) {}

    [[nodiscard]] core::Extents3 extents() const { return n_; }
    [[nodiscard]] int halo_width() const { return h_; }
    [[nodiscard]] gpu::DeviceBuffer& buffer() { return buf_; }
    [[nodiscard]] const gpu::DeviceBuffer& buffer() const { return buf_; }

    /// Linear offset of (i, j, k), identical to Field3::offset.
    [[nodiscard]] std::size_t offset(int i, int j, int k) const {
        return static_cast<std::size_t>(i + h_) +
               static_cast<std::size_t>(n_.nx + 2 * h_) *
                   (static_cast<std::size_t>(j + h_) +
                    static_cast<std::size_t>(n_.ny + 2 * h_) *
                        static_cast<std::size_t>(k + h_));
    }

    void swap(DeviceField& other) noexcept {
        std::swap(n_, other.n_);
        std::swap(h_, other.h_);
        std::swap(buf_, other.buf_);
    }

  private:
    core::Extents3 n_{};
    int h_ = 1;
    gpu::DeviceBuffer buf_;
};

/// Upload the stencil coefficients to the device's constant memory
/// ("the a_ijk values are in GPU constant memory", §IV-E).
void upload_coefficients(gpu::Device& device, const core::StencilCoeffs& a);

/// Launch the stencil kernel over `region` of the padded field, advancing
/// it `fuse` steps (1 = one plain Equation 2 update). At fuse 1 it is the
/// paper's shared-memory tile: (bx+2) x (by+2) thread blocks whose fringe
/// are halo threads that only stage the tile, and three shared xy planes
/// (z-1, z, z+1) rotating as threads iterate z. Each plane is staged with
/// one contiguous copy per tile row, clamped to the padded bounds, and
/// computed by one plane call of the CPU paths' row kernel with a plan
/// compacted from the device's constant memory (a Courant-1 table runs one
/// term), so the result is bitwise-identical to core::apply_stencil. An
/// active `src` adds Q at time level src.level, like the CPU hook. At
/// fuse > 1 (single-term coefficients and no source: the only fused jobs
/// impl::plan_job admits) it runs core::apply_stencil_chain_ptr over each
/// plane's rows straight from the padded buffer, bitwise-identical to
/// `fuse` successive sweeps; the halos of `in` covering region+fuse must be
/// valid (halo_width() >= fuse).
void launch_stencil(gpu::Stream& stream, gpu::Device& device,
                    const DeviceField& in, DeviceField& out,
                    const core::Range3& region, int bx, int by,
                    const GpuSource& src = {}, int fuse = 1);

/// Launch the variable-coefficient stencil kernel over `region`: each row
/// runs core::apply_stencil_var_row_ptr — the CPU variable path's vector
/// row kernel — over the cache's struct-of-arrays coefficients,
/// bitwise-identical to core::stencil_var_point. No shared-memory tiling:
/// the per-cell coefficient stream (27 doubles/cell) dominates traffic, so
/// the constant path's tile reuse does not apply. `cache` is captured by
/// pointer — it is built once at rank setup and outlives every stream drain
/// of the run. An active `src` adds Q exactly like the CPU hook.
void launch_stencil_var(gpu::Stream& stream, const DeviceField& in,
                        DeviceField& out, const core::Range3& region,
                        const core::CoeffCache& cache,
                        const GpuSource& src = {});

/// Launch a periodic halo fill for one dimension of a device field whose
/// extents equal the global domain (GPU-resident case): depth-thick halo
/// slabs copy from the opposite boundary, with staged transverse ranges so
/// corners propagate across the three dimension passes.
void launch_periodic_halo(gpu::Stream& stream, DeviceField& f, int dim,
                          int depth = 1);

/// Device-side open-boundary overwrite of one dimension's halo slabs (the
/// §IV-E resident case), launched right after that dimension's periodic
/// halo kernel, one layer deep (open faces never fuse). Mirrors
/// core::fill_boundary_dim bitwise: Inflow evaluates the by-value-captured
/// BoundaryField's g at (wrapped global index, `level`), Outflow copies the
/// nearest interior plane. `level` is snapshotted at enqueue time like
/// GpuSource::level.
void launch_boundary_fill(gpu::Stream& stream, DeviceField& f, int dim,
                          unsigned open,
                          const std::array<core::BoundaryKind, 6>& faces,
                          const core::BoundaryField& bf,
                          const core::Index3& origin, int level);

/// Pack `region` of the field into `staging` at `offset` (x fastest),
/// exactly core::pack's order so host- and device-side staging interoperate.
void launch_pack(gpu::Stream& stream, const DeviceField& f,
                 const core::Range3& region, gpu::DeviceBuffer& staging,
                 std::size_t offset);

/// Inverse of launch_pack.
void launch_unpack(gpu::Stream& stream, DeviceField& f,
                   const core::Range3& region, const gpu::DeviceBuffer& staging,
                   std::size_t offset);

}  // namespace advect::impl
