#include "impl/harness.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/box_partition.hpp"
#include "core/decomposition.hpp"
#include "core/stencil.hpp"
#include "impl/cpu_kernels.hpp"
#include "impl/device_field.hpp"
#include "impl/exchange.hpp"
#include "impl/gpu_task.hpp"
#include "impl/plan_executor.hpp"
#include "impl/registry.hpp"
#include "plan/builders.hpp"

namespace advect::impl {

namespace omp = advect::omp;

namespace {

/// Split `steps` into fused super-steps plus unfused remainder steps. The
/// remainder runs through a second, fuse-1 plan of the same implementation
/// over the same runtime state (fields keep their deep halos; the exchange
/// and staging simply move more than the single-step minimum, which is
/// harmless: a deeper halo of exact time-t data is a superset of the
/// 1-deep halo).
struct FusedSchedule {
    int supers = 0;     ///< fused super-steps (each advances plan.fuse)
    int remainder = 0;  ///< trailing unfused steps
};

FusedSchedule fused_schedule(const plan::StepPlan& plan, int steps) {
    const int fuse = plan.fuse < 1 ? 1 : plan.fuse;
    return {steps / fuse, fuse > 1 ? steps % fuse : 0};
}

/// The fuse-1 plan for the remainder steps (nullopt when none are needed).
/// A fused plan is periodic and constant-coefficient, and so is its
/// remainder.
std::optional<plan::StepPlan> remainder_plan(const plan::StepPlan& plan,
                                             const SolverConfig& cfg,
                                             const FusedSchedule& sched,
                                             core::Extents3 local) {
    if (sched.remainder == 0) return std::nullopt;
    return plan::build_step_plan(plan.impl_id,
                                 {local, cfg.box_thickness, /*fuse=*/1});
}

/// Per-rank scenario runtime, built once at setup (outside the timed loop):
/// the Dirichlet boundary data and, for variable-velocity scenarios, the
/// compacted coefficient row cache over this rank's block.
struct ScenarioRuntime {
    core::BoundaryField boundary;
    std::optional<core::CoeffCache> cache;

    ScenarioRuntime(const core::AdvectionProblem& p, core::Extents3 local,
                    core::Index3 origin)
        : boundary(core::make_boundary_field(p)) {
        if (!p.constant_coefficients())
            cache.emplace(p.coeff_field(), local, origin);
    }

    /// Point the context at this runtime; `p` must outlive the executor.
    void wire(ExecContext& ctx, const core::AdvectionProblem& p) const {
        ctx.scenario = &p.scenario;
        ctx.boundary = &boundary;
        ctx.coeff_cache = cache ? &*cache : nullptr;
    }
};

/// Why problem `p` cannot fuse time steps, or "" when it can. The one
/// fused kernel is the single-term register chain (docs/PERF.md §3), so a
/// fused job must be periodic, constant-coefficient and source-free, with
/// coefficients that compact to one live term.
std::string fuse_rule_error(const core::AdvectionProblem& p) {
    if (!p.constant_coefficients())
        return "needs constant coefficients (the register chain has one "
               "coefficient per step, not one per cell)";
    if (!p.scenario.periodic())
        return "needs every face periodic (an open face's boundary data "
               "changes every step)";
    if (p.source.active())
        return "needs a source-free problem (the register chain cannot add "
               "a manufactured source between steps)";
    const int terms = core::StencilPlan::make(p.coeffs(), 0, 0).terms;
    if (terms != 1)
        return "needs coefficients with one live term, as at Courant 1 "
               "(these keep " +
               std::to_string(terms) +
               " live terms: a dense sweep is FP-bound and fusing it does "
               "not pay)";
    return {};
}

}  // namespace

PlanJob plan_job(const std::string& impl_id, const SolverConfig& cfg) {
    const auto& p = cfg.problem;
    const std::string scen_err = p.scenario.validate_error();
    if (!scen_err.empty())
        throw std::invalid_argument("invalid scenario: " + scen_err);
    if (cfg.fuse > 1) {
        const std::string why = fuse_rule_error(p);
        if (!why.empty())
            throw plan::FuseGeometryError(
                "fuse factor " + std::to_string(cfg.fuse) + " " + why);
    }
    const bool var = !p.constant_coefficients();

    PlanJob job;
    job.decomp = core::make_decomposition(
        p.domain.extents(),
        find_implementation(impl_id).uses_mpi ? cfg.ntasks : 1);
    const int nranks = job.decomp.nranks();
    job.plans.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        try {
            job.plans.push_back(plan::build_step_plan(
                impl_id,
                {job.decomp.local_extents(r), cfg.box_thickness, cfg.fuse,
                 core::local_open_faces(p.scenario, job.decomp, r), var}));
        } catch (const plan::FuseGeometryError& e) {
            throw plan::FuseGeometryError("rank " + std::to_string(r) + ": " +
                                          e.what());
        }
    }
    return job;
}

RankOutcome run_plan_rank(const plan::StepPlan& plan, const SolverConfig& cfg,
                          const core::Decomp3& decomp, msg::Communicator& comm,
                          gpu::Device* device, bool first_on_device) {
    const auto& p = cfg.problem;
    const int rank = comm.rank();
    const auto n = decomp.local_extents(rank);
    const auto origin = decomp.origin(rank);
    const auto coeffs = p.coeffs();

    // `cur` carries the initial and the final state on every plan. The CPU
    // implementations step it with a second host field `nxt`; §IV-E only
    // uploads and downloads it, and §IV-F/G keep it as their host shell
    // mirror, so neither needs `nxt`. Halos (and the exchange below) are
    // `plan.fuse` deep so one exchange feeds a whole fused super-step.
    core::Field3 cur(n, plan.fuse);
    core::fill_initial(cur, p.domain, p.wave, origin);
    std::optional<core::Field3> nxt;
    if (!plan.resident && !plan.mirror_only) nxt.emplace(n, plan.fuse);

    std::optional<omp::ThreadTeam> team;
    if (!plan.resident) team.emplace(cfg.threads_per_task);
    std::optional<HaloExchange> exchange;
    if (plan.uses_comm) exchange.emplace(decomp, rank, plan.fuse);

    const core::SourceField source = core::make_source_field(p);
    const ScenarioRuntime scen(p, n, origin);
    int level = 0;

    ExecContext ctx;
    ctx.cfg = &cfg;
    ctx.coeffs = &coeffs;
    ctx.cur = &cur;
    ctx.nxt = nxt ? &*nxt : nullptr;
    ctx.team = team ? &*team : nullptr;
    ctx.comm = &comm;
    ctx.exchange = exchange ? &*exchange : nullptr;
    ctx.source = &source;
    ctx.origin = origin;
    ctx.time_level = &level;
    scen.wire(ctx, p);

    std::vector<gpu::Stream> streams;
    std::optional<core::BoxPartition> box;
    std::optional<DeviceField> d_cur;
    std::optional<DeviceField> d_nxt;
    std::optional<GpuStaging> staging;
    if (plan.uses_gpu) {
        // The first rank sharing the device fills its constant memory, on
        // its own thread, so the upload's span carries the rank; the start
        // barrier orders the upload before every rank's first kernel.
        if (first_on_device) upload_coefficients(*device, coeffs);
        for (int k = 0; k < plan.streams; ++k)
            streams.push_back(device->create_stream());
        d_cur.emplace(*device, n, plan.fuse);
        d_nxt.emplace(*device, n, plan.fuse);
        if (plan.staging == plan::StagingKind::BoxShell) {
            box.emplace(n, cfg.box_thickness, plan.fuse);
            staging.emplace(*device, box->gpu_halo_shell(),
                            box->block_boundary_shell());
        } else if (plan.staging == plan::StagingKind::MpiHalo) {
            staging.emplace(*device, mpi_halo_regions(n, plan.fuse),
                            boundary_shell_regions(n, plan.fuse));
        }
        streams[0].memcpy_h2d(d_cur->buffer(), 0, cur.raw());
        streams[0].synchronize();

        ctx.device = device;
        ctx.streams = &streams;
        ctx.d_cur = &*d_cur;
        ctx.d_nxt = &*d_nxt;
        ctx.staging = staging ? &*staging : nullptr;
    }

    PlanExecutor exec(plan, ctx);

    const FusedSchedule sched = fused_schedule(plan, cfg.steps);
    const auto rem_plan = remainder_plan(plan, cfg, sched, n);
    std::optional<PlanExecutor> rem_exec;
    if (rem_plan) rem_exec.emplace(*rem_plan, ctx);

    const int fuse = plan.fuse < 1 ? 1 : plan.fuse;
    comm.barrier();  // "a barrier immediately before measuring the start"
    const double t0 = now_seconds();
    for (int s = 0; s < sched.supers; ++s) {
        exec.run_step();
        level += fuse;
    }
    for (int s = 0; s < sched.remainder; ++s) {
        rem_exec->run_step();
        ++level;
    }
    // "The CPU and GPU synchronize immediately before timer calls": a step
    // may end in a host op with kernels still queued (§IV-E's Swap).
    for (auto& s : streams) s.synchronize();
    comm.barrier();
    const double t1 = now_seconds();
    // Every rank computes the same reduced wall time.
    const double wall = comm.allreduce_max(t1 - t0);

    switch (plan.finalize) {
        case plan::Finalize::HostState:
            break;
        case plan::Finalize::DeviceState:
            streams[0].memcpy_d2h(cur.raw(), d_cur->buffer(), 0);
            streams[0].synchronize();
            break;
        case plan::Finalize::BlockMerge: {
            // Assemble: walls from the host state, block from the device.
            core::Field3 block_out(n, plan.fuse);
            streams[0].memcpy_d2h(block_out.raw(), d_cur->buffer(), 0);
            streams[0].synchronize();
            cur.copy_region_from(block_out, box->gpu_block());
            break;
        }
    }
    return {std::move(cur), wall};
}

SolveResult run_plan_solver(const std::string& impl_id,
                            const SolverConfig& cfg) {
    const PlanJob job = plan_job(impl_id, cfg);
    const int nranks = job.decomp.nranks();
    std::optional<DevicePool> pool;
    if (job.plans[0].uses_gpu)
        pool.emplace(cfg.gpu_props, nranks, cfg.tasks_per_gpu);

    // A one-rank job's state is the whole domain: move it, don't copy it.
    core::Field3 global;
    if (nranks > 1) global = core::Field3(cfg.problem.domain.extents());
    double wall = 0.0;

    msg::run_ranks(nranks, [&](msg::Communicator& comm) {
        const int rank = comm.rank();
        const plan::StepPlan& plan = job.plans[static_cast<std::size_t>(rank)];
        gpu::Device* device =
            plan.uses_gpu ? &pool->device_for_rank(rank) : nullptr;
        RankOutcome out =
            run_plan_rank(plan, cfg, job.decomp, comm, device,
                          plan.uses_gpu && pool->first_on_device(rank));
        if (nranks == 1)
            global = std::move(out.state);
        else
            write_block(global, out.state, job.decomp.origin(rank));
        // Every rank holds the same reduced wall time; rank 0's write is
        // ordered before run_ranks returns, so no lock is needed.
        if (rank == 0) wall = out.wall_seconds;
    });

    return finish_result(cfg, std::move(global), wall);
}

}  // namespace advect::impl
