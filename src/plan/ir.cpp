#include "plan/ir.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace advect::plan {

const char* op_name(Op op) {
    switch (op) {
        case Op::PostRecvs: return "post_recvs";
        case Op::PackSend: return "pack_send";
        case Op::Comm: return "comm";
        case Op::CommDma: return "comm_dma";
        case Op::Wait: return "wait";
        case Op::Unpack: return "unpack";
        case Op::MasterExchange: return "master_exchange";
        case Op::HaloFill: return "halo_fill";
        case Op::BoundaryFill: return "boundary_fill";
        case Op::Stencil: return "stencil";
        case Op::Copy: return "copy";
        case Op::HostPack: return "host_pack";
        case Op::HostUnpack: return "host_unpack";
        case Op::CopyH2D: return "copy_h2d";
        case Op::CopyD2H: return "copy_d2h";
        case Op::KernelPack: return "kernel_pack";
        case Op::KernelUnpack: return "kernel_unpack";
        case Op::KernelHalo: return "kernel_halo";
        case Op::KernelBoundary: return "kernel_boundary";
        case Op::KernelStencil: return "kernel_stencil";
        case Op::KernelFace: return "kernel_face";
        case Op::Sync: return "sync";
        case Op::Swap: return "swap";
    }
    return "?";
}

namespace {

bool touches_host_state(Op op) {
    switch (op) {
        case Op::Stencil:
        case Op::HaloFill:
        case Op::BoundaryFill:
        case Op::PackSend:
        case Op::Unpack:
        case Op::MasterExchange:
        case Op::HostPack:
        case Op::HostUnpack:
            return true;
        default:
            return false;
    }
}

/// The executor runs the Copy task as a flip of the host cur/nxt pair, so a
/// host-state task must sit on one fixed side of it: an ancestor reads and
/// writes the pre-flip fields, a descendant the post-flip ones. Requires
/// backward-pointing dependencies (checked first by validate_error).
std::string flip_order_error(const std::vector<Task>& tasks) {
    int copy = -1;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i].op != Op::Copy) continue;
        if (copy >= 0)
            return "tasks '" + tasks[static_cast<std::size_t>(copy)].name +
                   "' and '" + tasks[i].name +
                   "' are both copy tasks; a step flips its host fields once";
        copy = static_cast<int>(i);
    }
    if (copy < 0) return {};
    // Ancestors sit before the copy, descendants after it, so one mark
    // vector serves both walks.
    std::vector<char> ordered(tasks.size(), 0);
    ordered[static_cast<std::size_t>(copy)] = 1;
    for (int i = copy; i >= 0; --i)
        if (ordered[static_cast<std::size_t>(i)] != 0)
            for (const int d : tasks[static_cast<std::size_t>(i)].deps)
                ordered[static_cast<std::size_t>(d)] = 1;
    for (std::size_t i = static_cast<std::size_t>(copy) + 1; i < tasks.size();
         ++i)
        for (const int d : tasks[i].deps)
            if (d >= copy && ordered[static_cast<std::size_t>(d)] != 0)
                ordered[i] = 1;
    for (std::size_t i = 0; i < tasks.size(); ++i)
        if (ordered[i] == 0 && touches_host_state(tasks[i].op))
            return "task '" + tasks[i].name + "' (" + op_name(tasks[i].op) +
                   ") touches host state but is neither an ancestor nor a "
                   "descendant of copy task '" +
                   tasks[static_cast<std::size_t>(copy)].name +
                   "'; it could run on either side of the flip";
    return {};
}

}  // namespace

std::string StepPlan::validate_error() const {
    if (tasks.empty()) return "plan has no tasks";
    if (fuse < 1) return "fuse factor must be >= 1";
    if (var_coeff && fuse > 1)
        return "variable-coefficient plans require fuse = 1";
    if (terminal < 0 || terminal >= static_cast<int>(tasks.size()))
        return "terminal index out of range";
    std::unordered_set<std::string> names;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const Task& t = tasks[i];
        if (t.name.empty()) return "task " + std::to_string(i) + " has no name";
        if (!names.insert(t.name).second)
            return "duplicate task name '" + t.name + "'";
        for (int d : t.deps) {
            if (d < 0 || d >= static_cast<int>(tasks.size()))
                return "task '" + t.name + "' depends on out-of-range index " +
                       std::to_string(d);
            // Dependencies must point strictly backward in issue order; a
            // forward (or self) edge means the task list cannot be executed
            // front to back, i.e. the graph has a cycle under issue order.
            if (d >= static_cast<int>(i))
                return "cyclic dependency: task '" + t.name +
                       "' depends on task '" + tasks[d].name +
                       "' which does not precede it";
        }
        // A compute task either stays unfused (remainder sweeps, copies) or
        // fuses exactly as deep as the plan's halo depth covers.
        if (t.payload.fuse < 1 ||
            (t.payload.fuse != 1 && t.payload.fuse != fuse))
            return "task '" + t.name + "' has fuse factor " +
                   std::to_string(t.payload.fuse) +
                   " inconsistent with the plan's " + std::to_string(fuse);
        if ((t.op == Op::BoundaryFill || t.op == Op::KernelBoundary) &&
            open_faces == 0)
            return "task '" + t.name +
                   "' fills open boundaries but the plan declares none";
        // Every non-host lane must be backed by a resource this plan
        // actually claims from the machine.
        switch (t.lane) {
            case trace::Lane::Host:
            case trace::Lane::Cpu:
                break;
            case trace::Lane::Nic:
                if (!uses_comm)
                    return "task '" + t.name +
                           "' runs on the nic lane but the plan claims no "
                           "communicator";
                break;
            case trace::Lane::Pcie:
            case trace::Lane::Gpu:
                if (!uses_gpu)
                    return "task '" + t.name + "' runs on the " +
                           std::string(trace::lane_name(t.lane)) +
                           " lane but the plan claims no device";
                break;
        }
    }
    for (const Task& t : tasks) {
        if (!t.cross_step_dep.empty() && !names.count(t.cross_step_dep))
            return "task '" + t.name + "' names unknown cross-step dep '" +
                   t.cross_step_dep + "'";
    }
    return flip_order_error(tasks);
}

std::string StepPlan::fuse_geometry_error() const {
    if (fuse <= 1) return {};
    const core::Extents3 n = local;
    if (n.nx <= 0 || n.ny <= 0 || n.nz <= 0) return {};
    const int mn = std::min({n.nx, n.ny, n.nz});
    if (fuse > mn)
        return "fuse factor " + std::to_string(fuse) + " needs a " +
               std::to_string(fuse) + "-deep halo but the local box " +
               std::to_string(n.nx) + "x" + std::to_string(n.ny) + "x" +
               std::to_string(n.nz) + " has minimum extent " +
               std::to_string(mn) +
               "; the deepened halo exceeds the local box (opposite send "
               "slabs would overlap)";
    return {};
}

int StepPlan::find(const std::string& name) const {
    for (std::size_t i = 0; i < tasks.size(); ++i)
        if (tasks[i].name == name) return static_cast<int>(i);
    return -1;
}

void validate(const StepPlan& plan) {
    std::string err = plan.fuse_geometry_error();
    if (!err.empty()) throw FuseGeometryError("invalid step plan: " + err);
    err = plan.validate_error();
    if (!err.empty()) throw std::logic_error("invalid step plan: " + err);
}

}  // namespace advect::plan
