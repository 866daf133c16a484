#include "plan/builders.hpp"

#include "core/boundary.hpp"

namespace advect::plan {

using namespace detail;

/// §IV-E — GPU-resident single task: the field lives on the device for the
/// whole run. Each step is three periodic-halo kernels (serialized x, y, z so
/// corners propagate) followed by the whole-domain stencil kernel; the state
/// flip is a pointer swap, so no copy kernel and no PCIe traffic at all.
StepPlan build_gpu_resident(const BuildParams& p) {
    Writer w;
    w.plan.impl_id = "gpu_resident";
    w.plan.local = p.local;
    w.plan.fuse = p.fuse;
    w.plan.uses_gpu = true;
    w.plan.resident = true;
    w.plan.streams = 1;
    w.plan.finalize = Finalize::DeviceState;
    set_scenario(w, p);

    int last = -1;
    for (int d = 0; d < 3; ++d) {
        Payload halo;
        halo.dim = d;
        // Two transverse planes of the (cubic) resident domain per stage,
        // `fuse` deep under temporal blocking.
        halo.bytes = 2 * static_cast<std::size_t>(p.fuse) *
                     static_cast<std::size_t>(p.local.nx) *
                     static_cast<std::size_t>(p.local.nx) * sizeof(double);
        last = w.add(std::string("halo_") + kDimName[d], Op::KernelHalo,
                     trace::Lane::Gpu, last < 0 ? std::vector<int>{}
                                                : std::vector<int>{last},
                     halo);
        // Device-side boundary overwrite of the slabs the periodic kernel
        // just filled, serialized into the same stream so later stages carry
        // boundary-correct corners.
        if ((p.open_faces & (3u << (2 * d))) != 0) {
            Payload bf;
            bf.dim = d;
            bf.bytes =
                core::boundary_fill_count(p.local, d, 1, p.open_faces) *
                sizeof(double);
            last = w.add(std::string("boundary_") + kDimName[d],
                         Op::KernelBoundary, trace::Lane::Gpu, {last}, bf);
        }
    }

    Payload st;
    st.regions = {whole(p.local)};
    st.points = p.local.volume();
    set_fused(st, p.fuse);
    const int s =
        w.add("stencil", Op::KernelStencil, trace::Lane::Gpu, {last}, st);

    w.add("swap", Op::Swap, trace::Lane::Host, {s});

    return std::move(w).finish();
}

}  // namespace advect::plan
