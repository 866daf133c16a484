#pragma once
/// \file gpu_task.hpp
/// Per-rank GPU staging state shared by the distributed GPU implementations
/// (§IV-F..I). Data crossing the (simulated) PCIe bus moves in large
/// contiguous staging buffers — the paper: "we need the buffers to allow
/// communication between CPU and GPU to be in large contiguous chunks" —
/// with pack/unpack kernels on the device side and pack/unpack loops on the
/// host side translating between staging buffers and strided field regions.
///
///  * inbound ("halo") regions: host field -> staging -> device field.
///    For §IV-F/G these are the six MPI halo planes; for §IV-H/I they are
///    the one-point shell of CPU points surrounding the GPU block.
///  * outbound ("boundary") regions: device field -> staging -> host field.
///    For §IV-F/G these are the six boundary slabs of the local domain; for
///    §IV-H/I the outermost layer of the GPU block.

#include <memory>
#include <vector>

#include "core/halo.hpp"
#include "impl/device_field.hpp"

namespace advect::impl {

/// Staging machinery between a host Field3 and a DeviceField of equal
/// extents, for fixed inbound and outbound region lists.
class GpuStaging {
  public:
    GpuStaging(gpu::Device& device, std::vector<core::Range3> inbound,
               std::vector<core::Range3> outbound);

    // The plan executor issues each step below as its own plan task, so
    // the executed trace is exactly as fine-grained as the plan. Host to
    // device: pack_inbound, enqueue_h2d_copy, enqueue_unpack_kernels;
    // device to host: enqueue_pack_kernels, enqueue_d2h_copy, then, once
    // the stream has been synchronized, unpack_outbound.

    /// Pack `host`'s inbound regions into the H2D staging buffer.
    void pack_inbound(const core::Field3& host);
    /// Enqueue the single H2D transfer of the packed staging buffer.
    void enqueue_h2d_copy(gpu::Stream& stream);
    /// Enqueue the per-region unpack kernels writing into `dst`.
    void enqueue_unpack_kernels(gpu::Stream& stream, DeviceField& dst);
    /// Enqueue the per-region pack kernels reading `src`.
    void enqueue_pack_kernels(gpu::Stream& stream, const DeviceField& src);
    /// Enqueue the single D2H transfer into the host staging buffer.
    void enqueue_d2h_copy(gpu::Stream& stream);

    /// Scatter the D2H staging buffer into `host`'s outbound regions.
    void unpack_outbound(core::Field3& host) const;

    /// Total doubles per direction (diagnostics / cost accounting).
    [[nodiscard]] std::size_t inbound_count() const { return in_count_; }
    [[nodiscard]] std::size_t outbound_count() const { return out_count_; }

  private:
    std::vector<core::Range3> inbound_;
    std::vector<core::Range3> outbound_;
    std::vector<std::size_t> in_offsets_;
    std::vector<std::size_t> out_offsets_;
    std::size_t in_count_ = 0;
    std::size_t out_count_ = 0;
    gpu::DeviceBuffer d_in_;
    gpu::DeviceBuffer d_out_;
    std::vector<double> h_in_;
    std::vector<double> h_out_;
};

/// The six MPI halo regions of a local domain (HaloPlan receive regions,
/// corner-extended per stage) at ghost depth `depth`: the inbound set for
/// §IV-F/G.
[[nodiscard]] std::vector<core::Range3> mpi_halo_regions(core::Extents3 n,
                                                         int depth = 1);

/// The six depth-thick boundary slabs of a local domain: the outbound set
/// for §IV-F/G.
[[nodiscard]] std::vector<core::Range3> boundary_shell_regions(
    core::Extents3 n, int depth = 1);

/// A pool of simulated GPUs shared by MPI tasks on the same "node":
/// rank r uses device r / tasks_per_gpu (§IV-F: "we can have more than one
/// MPI task issuing calls to a particular GPU"). The devices start with
/// empty constant memory.
class DevicePool {
  public:
    DevicePool(const gpu::DeviceProps& props, int ntasks, int tasks_per_gpu);

    [[nodiscard]] gpu::Device& device_for_rank(int rank) {
        return *devices_[static_cast<std::size_t>(rank / tasks_per_gpu_)];
    }
    /// Whether `rank` is the first of the ranks sharing its device, the one
    /// that uploads the coefficients (run_plan_rank).
    [[nodiscard]] bool first_on_device(int rank) const {
        return rank % tasks_per_gpu_ == 0;
    }
    [[nodiscard]] int device_count() const {
        return static_cast<int>(devices_.size());
    }

  private:
    int tasks_per_gpu_;
    std::vector<std::unique_ptr<gpu::Device>> devices_;
};

}  // namespace advect::impl
