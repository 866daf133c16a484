#include "plan/builders.hpp"

#include <stdexcept>
#include <utility>

#include "core/boundary.hpp"
#include "core/box_partition.hpp"
#include "core/halo.hpp"

namespace advect::plan {

StepPlan build_step_plan(const std::string& impl_id, const BuildParams& p) {
    if (impl_id == "single_task") return build_single_task(p);
    if (impl_id == "mpi_bulk") return build_mpi_bulk(p);
    if (impl_id == "mpi_nonblocking") return build_mpi_nonblocking(p);
    if (impl_id == "mpi_thread_overlap") return build_mpi_thread_overlap(p);
    if (impl_id == "gpu_resident") return build_gpu_resident(p);
    if (impl_id == "gpu_mpi_bulk") return build_gpu_mpi_bulk(p);
    if (impl_id == "gpu_mpi_streams") return build_gpu_mpi_streams(p);
    if (impl_id == "cpu_gpu_bulk") return build_cpu_gpu_bulk(p);
    if (impl_id == "cpu_gpu_overlap") return build_cpu_gpu_overlap(p);
    throw std::out_of_range("no step-plan builder for implementation '" +
                            impl_id + "'");
}

namespace detail {

std::array<std::size_t, 3> face_bytes(const core::Extents3& local,
                                      int depth) {
    const core::HaloPlan hp = core::HaloPlan::make(local, depth);
    std::array<std::size_t, 3> out{};
    for (int d = 0; d < 3; ++d)
        out[static_cast<std::size_t>(d)] =
            hp.message_count(d) * sizeof(double);
    return out;
}

std::size_t points_of(const std::vector<core::Range3>& regions) {
    std::size_t pts = 0;
    for (const core::Range3& r : regions) pts += r.volume();
    return pts;
}

std::size_t mpi_halo_bytes(const core::Extents3& local, int depth) {
    const core::HaloPlan hp = core::HaloPlan::make(local, depth);
    std::size_t pts = 0;
    for (const core::DimExchange& d : hp.dims)
        pts += d.recv_low.volume() + d.recv_high.volume();
    return pts * sizeof(double);
}

core::Range3 whole(const core::Extents3& local) {
    return {{0, 0, 0}, {local.nx, local.ny, local.nz}};
}

void set_fused(Payload& payload, int fuse) {
    if (fuse <= 1) return;
    payload.fuse = fuse;
    payload.fused_points = 0;
    for (const core::Range3& r : payload.regions)
        for (int s = 1; s <= fuse; ++s)
            payload.fused_points += core::expand(r, fuse - s).volume();
}

int Writer::add(std::string name, Op op, trace::Lane lane,
                std::vector<int> deps, Payload payload) {
    Task t;
    t.name = std::move(name);
    t.op = op;
    t.lane = lane;
    t.deps = std::move(deps);
    t.payload = std::move(payload);
    plan.tasks.push_back(std::move(t));
    return static_cast<int>(plan.tasks.size()) - 1;
}

StepPlan Writer::finish() && {
    plan.terminal = static_cast<int>(plan.tasks.size()) - 1;
    validate(plan);
    return std::move(plan);
}

void set_scenario(Writer& w, const BuildParams& p) {
    if (p.fuse > 1 && p.var_coeff)
        throw FuseGeometryError(
            "fuse factor " + std::to_string(p.fuse) +
            " needs constant coefficients (the register chain has one "
            "coefficient per step, not one per cell)");
    if (p.fuse > 1 && p.open_faces != 0)
        throw FuseGeometryError(
            "fuse factor " + std::to_string(p.fuse) +
            " needs every face periodic (an open face's boundary data "
            "changes every step)");
    w.plan.open_faces = p.open_faces;
    w.plan.var_coeff = p.var_coeff;
}

int add_boundary_dim(Writer& w, const core::Extents3& local, int dim,
                     int dep) {
    const unsigned open = w.plan.open_faces;
    if ((open & (3u << (2 * dim))) == 0) return dep;
    Payload b;
    b.dim = dim;
    b.bytes = core::boundary_fill_count(local, dim, 1, open) * sizeof(double);
    return w.add(std::string("boundary_") + kDimName[dim], Op::BoundaryFill,
                 trace::Lane::Cpu, {dep}, b);
}

int add_bulk_exchange(Writer& w, const core::Extents3& local,
                      std::vector<int> root_deps, std::string cross_step,
                      int depth) {
    const auto fb = face_bytes(local, depth);
    const int post =
        w.add("post_recvs", Op::PostRecvs, trace::Lane::Host,
              std::move(root_deps));
    w.plan.tasks[static_cast<std::size_t>(post)].cross_step_dep =
        std::move(cross_step);
    int last = post;
    for (int d = 0; d < 3; ++d) {
        const auto b = fb[static_cast<std::size_t>(d)];
        Payload pack;
        pack.dim = d;
        pack.bytes = 2 * b;
        const int p = w.add(std::string("pack_") + kDimName[d], Op::PackSend,
                            trace::Lane::Cpu, {last}, pack);
        Payload comm;
        comm.dim = d;
        comm.bytes = b;
        const int c = w.add(std::string("comm_") + kDimName[d], Op::Comm,
                            trace::Lane::Nic, {p}, comm);
        Payload unpack;
        unpack.dim = d;
        unpack.bytes = 2 * b;
        last = w.add(std::string("unpack_") + kDimName[d], Op::Unpack,
                     trace::Lane::Cpu, {c}, unpack);
        last = add_boundary_dim(w, local, d, last);
    }
    return last;
}

int add_overlapped_dim(Writer& w, const core::Extents3& local, int dim,
                       std::vector<int> root_deps, std::string work_name,
                       std::vector<core::Range3> work, bool work_eff,
                       int fuse) {
    const auto b = face_bytes(local, fuse)[static_cast<std::size_t>(dim)];
    Payload pack;
    pack.dim = dim;
    pack.bytes = 2 * b;
    const int p = w.add(std::string("pack_") + kDimName[dim], Op::PackSend,
                        trace::Lane::Cpu, std::move(root_deps), pack);
    Payload dma;
    dma.dim = dim;
    dma.bytes = b;
    const int nic = w.add(std::string("dma_") + kDimName[dim], Op::CommDma,
                          trace::Lane::Nic, {p}, dma);
    Payload overlap;
    overlap.dim = dim;
    overlap.points = points_of(work);
    overlap.regions = std::move(work);
    overlap.boundary_eff = work_eff;
    set_fused(overlap, fuse);
    const int ov =
        w.add(std::move(work_name), Op::Stencil, trace::Lane::Cpu, {p},
              std::move(overlap));
    Payload wait;
    wait.dim = dim;
    wait.bytes = b;
    const int wt = w.add(std::string("wait_") + kDimName[dim], Op::Wait,
                         trace::Lane::Cpu, {nic, ov}, wait);
    Payload unpack;
    unpack.dim = dim;
    unpack.bytes = 2 * b;
    const int up = w.add(std::string("unpack_") + kDimName[dim], Op::Unpack,
                         trace::Lane::Cpu, {wt}, unpack);
    return add_boundary_dim(w, local, dim, up);
}

}  // namespace detail

}  // namespace advect::plan
