#include "impl/gpu_task.hpp"

#include <stdexcept>

#include "core/stencil.hpp"

namespace advect::impl {

GpuStaging::GpuStaging(gpu::Device& device, std::vector<core::Range3> inbound,
                       std::vector<core::Range3> outbound)
    : inbound_(std::move(inbound)), outbound_(std::move(outbound)) {
    for (const auto& r : inbound_) {
        in_offsets_.push_back(in_count_);
        in_count_ += r.volume();
    }
    for (const auto& r : outbound_) {
        out_offsets_.push_back(out_count_);
        out_count_ += r.volume();
    }
    if (in_count_ > 0) d_in_ = device.alloc(in_count_);
    if (out_count_ > 0) d_out_ = device.alloc(out_count_);
    h_in_.resize(in_count_);
    h_out_.resize(out_count_);
}

void GpuStaging::pack_inbound(const core::Field3& host) {
    for (std::size_t r = 0; r < inbound_.size(); ++r)
        core::pack(host, inbound_[r],
                   std::span<double>(h_in_).subspan(in_offsets_[r],
                                                    inbound_[r].volume()));
}

void GpuStaging::enqueue_h2d_copy(gpu::Stream& stream) {
    if (in_count_ == 0) return;
    stream.memcpy_h2d(d_in_, 0, h_in_);
}

void GpuStaging::enqueue_unpack_kernels(gpu::Stream& stream,
                                        DeviceField& dst) {
    for (std::size_t r = 0; r < inbound_.size(); ++r)
        launch_unpack(stream, dst, inbound_[r], d_in_, in_offsets_[r]);
}

void GpuStaging::enqueue_pack_kernels(gpu::Stream& stream,
                                      const DeviceField& src) {
    for (std::size_t r = 0; r < outbound_.size(); ++r)
        launch_pack(stream, src, outbound_[r], d_out_, out_offsets_[r]);
}

void GpuStaging::enqueue_d2h_copy(gpu::Stream& stream) {
    if (out_count_ == 0) return;
    stream.memcpy_d2h(h_out_, d_out_, 0);
}

void GpuStaging::unpack_outbound(core::Field3& host) const {
    for (std::size_t r = 0; r < outbound_.size(); ++r)
        core::unpack(host, outbound_[r],
                     std::span<const double>(h_out_).subspan(
                         out_offsets_[r], outbound_[r].volume()));
}

std::vector<core::Range3> mpi_halo_regions(core::Extents3 n, int depth) {
    const auto plan = core::HaloPlan::make(n, depth);
    std::vector<core::Range3> out;
    for (const auto& d : plan.dims) {
        out.push_back(d.recv_low);
        out.push_back(d.recv_high);
    }
    return out;
}

std::vector<core::Range3> boundary_shell_regions(core::Extents3 n,
                                                 int depth) {
    return core::partition_interior_boundary(n, depth).boundary;
}

DevicePool::DevicePool(const gpu::DeviceProps& props, int ntasks,
                       int tasks_per_gpu)
    : tasks_per_gpu_(tasks_per_gpu) {
    if (tasks_per_gpu < 1)
        throw std::invalid_argument("DevicePool: tasks_per_gpu must be >= 1");
    const int ndev = (ntasks + tasks_per_gpu - 1) / tasks_per_gpu;
    devices_.reserve(static_cast<std::size_t>(ndev));
    for (int d = 0; d < ndev; ++d)
        devices_.push_back(std::make_unique<gpu::Device>(props));
}

}  // namespace advect::impl
