#include "layers.hpp"

#include <algorithm>
#include <cstring>

#include "core/decomposition.hpp"
#include "plan/builders.hpp"
#include "trace/export.hpp"

namespace perfbench {

namespace core = advect::core;
namespace plan = advect::plan;
namespace trace = advect::trace;

namespace {

Row row_of(plan::Op op) {
    switch (op) {
        case plan::Op::Stencil: return Row::Stencil;
        case plan::Op::Copy: return Row::Copy;
        case plan::Op::HaloFill: return Row::HaloFill;
        case plan::Op::BoundaryFill: return Row::BoundaryFill;
        case plan::Op::PackSend:
        case plan::Op::HostPack: return Row::Pack;
        case plan::Op::Unpack:
        case plan::Op::HostUnpack: return Row::Unpack;
        case plan::Op::Comm:
        case plan::Op::Wait:
        case plan::Op::MasterExchange: return Row::Wait;
        case plan::Op::Sync: return Row::Sync;
        case plan::Op::CopyH2D:
        case plan::Op::CopyD2H:
        case plan::Op::KernelPack:
        case plan::Op::KernelUnpack:
        case plan::Op::KernelHalo:
        case plan::Op::KernelBoundary:
        case plan::Op::KernelStencil:
        case plan::Op::KernelFace: return Row::Enqueue;
        case plan::Op::PostRecvs:
        case plan::Op::CommDma:
        case plan::Op::Swap: return Row::Other;
    }
    return Row::Other;
}

/// The plan each rank executed, rebuilt exactly as the harness builds it.
/// Single-rank plans (no communication) come back as one entry.
std::vector<plan::StepPlan> rank_plans(const std::string& impl_id,
                                       const advect::impl::SolverConfig& cfg) {
    const auto& p = cfg.problem;
    const bool var = !p.constant_coefficients();
    plan::StepPlan probe = plan::build_step_plan(
        impl_id, {p.domain.extents(), cfg.box_thickness, cfg.fuse,
                  p.scenario.open_faces(), var});
    std::vector<plan::StepPlan> plans;
    if (!probe.uses_comm) {
        plans.push_back(std::move(probe));
        return plans;
    }
    const auto decomp = core::make_decomposition(p.domain.extents(), cfg.ntasks);
    for (int r = 0; r < decomp.nranks(); ++r)
        plans.push_back(plan::build_step_plan(
            impl_id, {decomp.local_extents(r), cfg.box_thickness, cfg.fuse,
                      core::local_open_faces(p.scenario, decomp, r), var}));
    return plans;
}

/// Lane-aware split of the union of `spans` (row index, t0, t1): each
/// elementary interval is shared equally among the spans covering it.
std::array<double, kRows> split_union(
    const std::vector<std::pair<Row, std::pair<double, double>>>& spans) {
    struct Edge {
        double t;
        int delta;
        std::size_t row;
    };
    std::vector<Edge> edges;
    edges.reserve(spans.size() * 2);
    for (const auto& [row, iv] : spans) {
        if (iv.second <= iv.first) continue;
        edges.push_back({iv.first, +1, static_cast<std::size_t>(row)});
        edges.push_back({iv.second, -1, static_cast<std::size_t>(row)});
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
        return a.t < b.t || (a.t == b.t && a.delta < b.delta);
    });
    std::array<double, kRows> out{};
    std::array<int, kRows> active{};
    int total = 0;
    double last = edges.empty() ? 0.0 : edges.front().t;
    for (const Edge& e : edges) {
        if (total > 0 && e.t > last) {
            const double share = (e.t - last) / total;
            for (std::size_t r = 0; r < kRows; ++r) out[r] += share * active[r];
        }
        last = e.t;
        active[e.row] += e.delta;
        total += e.delta;
    }
    return out;
}

}  // namespace

LayerSample attribute(const std::string& impl_id,
                      const advect::impl::SolverConfig& cfg,
                      const std::vector<trace::Span>& spans, double wall) {
    LayerSample out;
    const std::vector<plan::StepPlan> plans = rank_plans(impl_id, cfg);
    const int nranks = static_cast<int>(plans.size());
    const double steps = cfg.steps;
    // A single-rank solve records on whichever thread ran it (rank -1 in
    // process, 0 in a worker); fold it onto rank 0.
    const auto rank_of = [&](const trace::Span& s) {
        return nranks == 1 ? 0 : s.rank;
    };

    for (int r = 0; r < nranks; ++r) {
        const plan::StepPlan& pl = plans[static_cast<std::size_t>(r)];
        const bool team = pl.mode == plan::Mode::TeamStages;
        // The rank's loop starts at its first step span; its own loop time
        // is at most the allreduce-max wall.
        double lo = 1e300;
        for (const auto& s : spans)
            if (rank_of(s) == r && std::strcmp(s.category, "impl") == 0 &&
                s.name == "step")
                lo = std::min(lo, s.t0);
        const double hi = lo + wall;
        if (lo == 1e300) {
            out.error = impl_id + ": rank " + std::to_string(r) +
                        " recorded no step spans";
            return out;
        }
        std::vector<std::pair<Row, std::pair<double, double>>> tasks;
        std::vector<trace::Span> device, lanes;
        // Raw task time per host lane, no split: HostIssue plans run their
        // tasks one after another on the rank thread; TeamStages plans run
        // the stages one after another and the master exchange beside them.
        double lane_sum[2] = {0.0, 0.0};
        double first = hi, last = lo;
        for (const auto& s : spans) {
            if (rank_of(s) != r) continue;
            if (std::strcmp(s.category, "plan") == 0) {
                const int idx = pl.find(s.name);
                if (idx < 0) {
                    out.error = impl_id + ": span '" + s.name +
                                "' is not a task of rank " +
                                std::to_string(r) + "'s plan";
                    return out;
                }
                const plan::Op op = pl.tasks[static_cast<std::size_t>(idx)].op;
                tasks.push_back({row_of(op), {s.t0, s.t1}});
                lane_sum[op == plan::Op::MasterExchange ? 1 : 0] += s.t1 - s.t0;
                first = std::min(first, s.t0);
                last = std::max(last, s.t1);
                continue;
            }
            // Device work enqueued by the last step may run past the loop.
            if (s.t1 < lo || s.t0 > hi) continue;
            trace::Span c = s;
            c.rank = r;
            if (std::strcmp(s.category, "gpu") == 0 &&
                (s.lane == trace::Lane::Gpu || s.lane == trace::Lane::Pcie))
                device.push_back(c);
            if (std::strcmp(s.category, "msg") == 0 && s.name == "isend")
                ++out.sends;
            lanes.push_back(std::move(c));
        }
        // Closure: each lane's task time must fit in the loop wall, and
        // every task must lie within [first step start, that start + wall].
        for (const double busy : {lane_sum[0], lane_sum[1], last - lo, hi - first})
            out.closure_error = std::max(out.closure_error, (busy - wall) / wall);

        std::array<double, kRows> rows{};
        if (team) {
            rows = split_union(tasks);
        } else {
            for (const auto& [row, iv] : tasks)
                rows[static_cast<std::size_t>(row)] += iv.second - iv.first;
        }
        double attributed = 0.0;
        for (std::size_t k = 0; k < kRows; ++k) {
            out.row_s[k] += rows[k] / steps / nranks;
            attributed += rows[k];
        }
        out.unattributed_s += (wall - attributed) / steps / nranks;

        const trace::OverlapReport dev = trace::summarize_rank(device, r);
        out.kernel_busy_s += dev.busy_of(trace::Lane::Gpu) / steps / nranks;
        out.pcie_busy_s += dev.busy_of(trace::Lane::Pcie) / steps / nranks;
        out.overlap_factor += trace::summarize_rank(lanes, r).overlap_factor / nranks;
    }
    out.wall_s = wall / steps;
    out.sends_per_step = static_cast<double>(out.sends) / steps;
    return out;
}

}  // namespace perfbench
