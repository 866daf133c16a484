#include "plan/builders.hpp"

#include "core/box_partition.hpp"

namespace advect::plan {

using namespace detail;

/// §IV-I — the paper's full overlap: the deep-interior GPU kernel launches
/// first on stream 0 and runs for the whole step; stream 1 replays halo
/// upload, block-shell kernels, and boundary download; the CPUs meanwhile
/// drive the overlapped MPI exchange, computing inner wall pieces while each
/// dimension's messages fly. Only the end-of-step sync and the shell
/// scatter join the lanes back together.
StepPlan build_cpu_gpu_overlap(const BuildParams& p) {
    Writer w;
    w.plan.impl_id = "cpu_gpu_overlap";
    w.plan.local = p.local;
    w.plan.fuse = p.fuse;
    w.plan.uses_comm = true;
    w.plan.uses_gpu = true;
    w.plan.streams = 2;
    w.plan.staging = StagingKind::BoxShell;
    w.plan.finalize = Finalize::BlockMerge;
    set_scenario(w, p);

    if (p.fuse > p.box_thickness)
        throw FuseGeometryError(
            "cpu_gpu_overlap: fuse factor " + std::to_string(p.fuse) +
            " exceeds the CPU wall thickness " +
            std::to_string(p.box_thickness) +
            " (the fuse-deep CPU/GPU shells must stay within the walls)");
    const core::BoxPartition box(p.local, p.box_thickness, p.fuse);
    // The deep interior launches before any halo traffic: fused rows read
    // at most `fuse` beyond their write set, so it must recede by fuse.
    const core::Range3 block_interior = core::expand(box.gpu_block(), -p.fuse);
    const std::vector<core::Range3> block_shell =
        core::box_subtract(box.gpu_block(), block_interior);
    const std::size_t in_bytes =
        points_of(box.gpu_halo_shell()) * sizeof(double);
    const std::size_t out_bytes =
        points_of(box.block_boundary_shell()) * sizeof(double);

    std::array<std::vector<core::Range3>, 3> inner_by_dim;
    std::vector<core::Range3> outer_all;
    std::vector<core::Range3> wall_regions;
    for (const core::Wall& wall : box.cpu_walls()) {
        auto& inner = inner_by_dim[static_cast<std::size_t>(wall.dim)];
        inner.insert(inner.end(), wall.inner.begin(), wall.inner.end());
        outer_all.insert(outer_all.end(), wall.outer.begin(),
                         wall.outer.end());
        wall_regions.push_back(wall.whole);
    }

    Payload blk;
    blk.regions = {block_interior};
    blk.points = block_interior.volume();
    blk.stream = 0;
    blk.contended = block_shell;  // shell kernels steal SMs when concurrent
    set_fused(blk, p.fuse);
    const int interior = w.add("block_interior", Op::KernelStencil,
                               trace::Lane::Gpu, {}, blk);

    const int post = w.add("post_recvs", Op::PostRecvs, trace::Lane::Host, {});

    Payload ph;
    ph.bytes = in_bytes;
    const int pack_h =
        w.add("pack_host", Op::HostPack, trace::Lane::Cpu, {post}, ph);

    Payload h2d;
    h2d.bytes = in_bytes;
    h2d.coupled_pcie = false;  // DMA overlaps MPI by design here
    h2d.stream = 1;
    const int up =
        w.add("h2d", Op::CopyH2D, trace::Lane::Pcie, {pack_h}, h2d);

    Payload uk;
    uk.bytes = in_bytes;
    uk.stream = 1;
    const int unpack_k =
        w.add("unpack_kernel", Op::KernelUnpack, trace::Lane::Gpu, {up}, uk);

    int last_kernel = unpack_k;
    for (std::size_t f = 0; f < block_shell.size(); ++f) {
        Payload face;
        face.regions = {block_shell[f]};
        face.points = block_shell[f].volume();
        face.stream = 1;
        set_fused(face, p.fuse);
        last_kernel = w.add("shell_" + std::to_string(f), Op::KernelFace,
                            trace::Lane::Gpu, {last_kernel}, face);
    }

    Payload pk;
    pk.bytes = out_bytes;
    pk.stream = 1;
    pk.src_next = true;  // stages the boundary the shell kernels just wrote
    const int pack_k = w.add("pack_kernel", Op::KernelPack, trace::Lane::Gpu,
                             {last_kernel}, pk);

    Payload d2h;
    d2h.bytes = out_bytes;
    d2h.coupled_pcie = false;
    d2h.stream = 1;
    const int down =
        w.add("d2h", Op::CopyD2H, trace::Lane::Pcie, {pack_k}, d2h);

    int last = pack_h;
    for (int d = 0; d < 3; ++d) {
        last = add_overlapped_dim(
            w, p.local, d, {last},
            std::string("inner_walls_") + kDimName[d],
            inner_by_dim[static_cast<std::size_t>(d)], /*work_eff=*/true,
            p.fuse);
    }

    Payload ow;
    ow.regions = outer_all;
    ow.points = points_of(outer_all);
    ow.boundary_eff = true;
    set_fused(ow, p.fuse);
    const int outer =
        w.add("outer_walls", Op::Stencil, trace::Lane::Cpu, {last}, ow);

    Payload cw;
    cw.regions = wall_regions;
    cw.points = box.cpu_points();
    const int copy_walls =
        w.add("copy_walls", Op::Copy, trace::Lane::Cpu, {outer}, cw);

    Payload sy;
    sy.sync_count = 2;
    const int sync =
        w.add("sync", Op::Sync, trace::Lane::Cpu, {interior, down}, sy);

    Payload us;
    us.bytes = out_bytes;
    const int unpack_s = w.add("unpack_shell", Op::HostUnpack,
                               trace::Lane::Cpu, {down, copy_walls}, us);

    w.add("swap", Op::Swap, trace::Lane::Host, {sync, unpack_s});

    return std::move(w).finish();
}

}  // namespace advect::plan
