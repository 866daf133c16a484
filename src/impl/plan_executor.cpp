#include "impl/plan_executor.hpp"

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "chaos/inject.hpp"
#include "impl/cpu_kernels.hpp"
#include "impl/device_field.hpp"
#include "omp/parallel_for.hpp"
#include "omp/schedule.hpp"
#include "trace/span.hpp"

namespace advect::impl {

namespace omp = advect::omp;

namespace {

omp::Schedule to_omp(plan::Sched s) {
    return s == plan::Sched::Guided ? omp::Schedule::Guided
                                    : omp::Schedule::Static;
}

/// Issue-order chain class of an op for the schedule shuffle: ops within a
/// class keep their relative plan order. Class 0 is the communication
/// progression (each rank's sequence of posts/packs/waits is what its
/// neighbours' blocking waits count on — reordering it across ranks can
/// deadlock); class 1 is the device progression (enqueues and syncs whose
/// FIFO order the staging protocol assumes). -1 (pure host compute) permutes
/// freely within its declared dependencies.
int chain_class(plan::Op op) {
    switch (op) {
        case plan::Op::PostRecvs:
        case plan::Op::PackSend:
        case plan::Op::Comm:
        case plan::Op::CommDma:
        case plan::Op::Wait:
        case plan::Op::Unpack:
        case plan::Op::MasterExchange:
            return 0;
        case plan::Op::HostPack:
        case plan::Op::HostUnpack:
        case plan::Op::CopyH2D:
        case plan::Op::CopyD2H:
        case plan::Op::KernelPack:
        case plan::Op::KernelUnpack:
        case plan::Op::KernelHalo:
        case plan::Op::KernelBoundary:
        case plan::Op::KernelStencil:
        case plan::Op::KernelFace:
        case plan::Op::Sync:
        case plan::Op::Swap:
            return 1;
        case plan::Op::HaloFill:
        case plan::Op::BoundaryFill:
        case plan::Op::Stencil:
        case plan::Op::Copy:
            return -1;
    }
    return -1;
}

/// Seeded topological shuffle of the plan's task graph: Kahn's algorithm
/// with a deterministic splitmix64 draw over the ready set, with implicit
/// chain edges linking consecutive same-class ops (see chain_class). Every
/// declared dependency is honoured, so any order this produces is one the
/// executor claims to support — the verification harness asserts the final
/// state is bitwise-invariant across such orders.
std::vector<std::size_t> shuffled_issue_order(const plan::StepPlan& plan,
                                              unsigned seed, int rank) {
    const std::size_t n = plan.tasks.size();
    std::vector<std::vector<std::size_t>> succ(n);
    std::vector<int> indeg(n, 0);
    const auto edge = [&](std::size_t a, std::size_t b) {
        succ[a].push_back(b);
        ++indeg[b];
    };
    int prev[2] = {-1, -1};
    for (std::size_t i = 0; i < n; ++i) {
        for (const int d : plan.tasks[i].deps)
            edge(static_cast<std::size_t>(d), i);
        const int cls = chain_class(plan.tasks[i].op);
        if (cls >= 0) {
            if (prev[cls] >= 0) edge(static_cast<std::size_t>(prev[cls]), i);
            prev[cls] = static_cast<int>(i);
        }
    }
    // splitmix64 over (seed, rank): ranks draw different permutations, and
    // the whole sequence is platform-independent.
    std::uint64_t state = (static_cast<std::uint64_t>(seed) << 32) ^
                          (static_cast<std::uint64_t>(rank) + 1);
    const auto draw = [&]() {
        state += 0x9E3779B97F4A7C15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    };
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < n; ++i)
        if (indeg[i] == 0) ready.push_back(i);
    std::vector<std::size_t> order;
    order.reserve(n);
    while (!ready.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            draw() % static_cast<std::uint64_t>(ready.size()));
        const std::size_t t = ready[pick];
        ready[pick] = ready.back();
        ready.pop_back();
        order.push_back(t);
        for (const std::size_t s : succ[t])
            if (--indeg[s] == 0) ready.push_back(s);
    }
    assert(order.size() == n);  // deps point backwards, so the graph is a DAG
    return order;
}

}  // namespace

PlanExecutor::PlanExecutor(const plan::StepPlan& plan, ExecContext ctx)
    : plan_(&plan), ctx_(ctx) {
    rows_.resize(plan.tasks.size());
    for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
        const auto& t = plan.tasks[i];
        if (t.op != plan::Op::Stencil) continue;
        std::vector<core::Range3> regs;
        for (const auto& r : t.payload.regions)
            if (!r.empty()) regs.push_back(r);
        // All-empty region lists (e.g. a degenerate interior third in
        // §IV-C) leave a zero-row space the dispatcher skips, exactly as the
        // hand-written drivers skipped absent slabs.
        if (!regs.empty()) rows_[i] = core::RowSpace(std::move(regs));
        if (plan.mode == plan::Mode::TeamStages) stages_.push_back(i);
    }
    if (plan.mode == plan::Mode::HostIssue && plan.fuse == 1)
        for (const auto& t : plan.tasks)
            if (t.op == plan::Op::HaloFill && t.payload.dim < 0)
                wrap_halo_ = true;
    if (plan.mode == plan::Mode::TeamStages) {
        for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
            if (plan.tasks[i].op == plan::Op::MasterExchange)
                master_task_ = static_cast<int>(i);
            if (plan.tasks[i].op == plan::Op::Copy)
                copy_task_ = static_cast<int>(i);
        }
    }
    if (plan.mode == plan::Mode::HostIssue && ctx_.cfg != nullptr &&
        ctx_.cfg->schedule_seed != 0)
        order_ = shuffled_issue_order(
            plan, ctx_.cfg->schedule_seed,
            ctx_.comm != nullptr ? ctx_.comm->rank() : 0);
}

void PlanExecutor::run_step() {
    trace::ScopedSpan step_span("step", "impl", trace::Lane::Host);
    if (plan_->mode == plan::Mode::TeamStages)
        run_team_stages();
    else
        run_host_issue();
    ++step_;
}

void PlanExecutor::run_host_issue() {
    const bool tracing = trace::enabled();
    const bool injecting = chaos::active();
    for (std::size_t oi = 0; oi < plan_->tasks.size(); ++oi) {
        const std::size_t i = order_.empty() ? oi : order_[oi];
        const auto& t = plan_->tasks[i];
        const double t0 = tracing ? trace::now() : 0.0;
        if (injecting) {
            // Every fault fires at a named plan task: declare the site
            // (name, step) for the draws the substrates make underneath,
            // apply any TaskDelay, and absorb injected launch failures.
            chaos::ScopedTaskSite site(t.name.c_str(), step_);
            chaos::on_task_issue(trace::current_rank());
            run_task_retrying(t, i);
        } else {
            run_task(t, i);
        }
        if (tracing) {
            const bool on_device = t.lane == trace::Lane::Gpu ||
                                   t.lane == trace::Lane::Pcie;
            trace::record(t.name, "plan", t.lane, t0, trace::now(),
                          trace::current_rank(), /*thread=*/-1,
                          on_device ? t.payload.stream : -1);
        }
    }
}

void PlanExecutor::run_team_stages() {
    // §IV-D: one parallel region; the master runs the serial exchange while
    // the workers start on guided interior chunks, then staged drains with
    // barriers between stages. Schedulers are per step (single-use).
    const bool tracing = trace::enabled();
    std::vector<std::unique_ptr<omp::LoopScheduler>> scheds;
    scheds.reserve(stages_.size());
    for (const std::size_t si : stages_)
        scheds.push_back(std::make_unique<omp::LoopScheduler>(
            0, rows_[si].size(), to_omp(plan_->tasks[si].payload.schedule),
            ctx_.team->size()));

    const std::size_t nstages = stages_.size();
    std::vector<double> stage_end(nstages, 0.0);
    double master0 = 0.0;
    double master1 = 0.0;
    const int level = base_level();
    const double region0 = tracing ? trace::now() : 0.0;

    // With open faces the master interleaves each dimension's boundary
    // overwrite between that dimension's unpack and the next dimension's
    // pack, exactly like the HostIssue plans' boundary_<dim> tasks (corner
    // columns carried by later stages must already hold boundary data).
    const auto master_exchange = [&] {
        if (plan_->open_faces == 0) {
            ctx_.exchange->exchange_all(*ctx_.comm, *ctx_.cur,
                                        /*team=*/nullptr);
            return;
        }
        ctx_.exchange->post_recvs(*ctx_.comm);
        for (int d = 0; d < 3; ++d) {
            ctx_.exchange->start_dim(*ctx_.comm, *ctx_.cur, d,
                                     /*team=*/nullptr);
            ctx_.exchange->finish_dim(*ctx_.comm, *ctx_.cur, d,
                                      /*team=*/nullptr);
            core::fill_boundary_dim(*ctx_.cur, d, plan_->open_faces,
                                    ctx_.scenario->faces, *ctx_.boundary,
                                    ctx_.origin, level);
        }
    };

    ctx_.team->parallel([&](int id) {
        if (id == 0 && master_task_ >= 0) {
            // !$omp master: serial communication, then join in.
            if (tracing) master0 = trace::now();
            if (chaos::active()) {
                const plan::Task& m =
                    plan_->tasks[static_cast<std::size_t>(master_task_)];
                chaos::ScopedTaskSite site(m.name.c_str(), step_);
                chaos::on_task_issue(trace::current_rank());
                master_exchange();
            } else {
                master_exchange();
            }
            if (tracing) master1 = trace::now();
        }
        for (std::size_t s = 0; s < nstages; ++s) {
            omp::drain(*scheds[s], id, [&](std::int64_t lo, std::int64_t hi) {
                sweep(stages_[s], lo, hi);
            });
            // "An OpenMP barrier ensures that the master thread completes
            // communication before computation begins on the boundary."
            if (s + 1 < nstages) {
                ctx_.team->barrier();
                if (tracing && id == 0) stage_end[s] = trace::now();
            }
        }
    });
    if (tracing) stage_end[nstages - 1] = trace::now();
    // Step 3 closes the step on the rank thread, once the team has joined.
    if (copy_task_ >= 0) ctx_.cur->swap(*ctx_.nxt);

    if (!tracing) return;
    const double flip_end = trace::now();
    const int rank = trace::current_rank();
    if (master_task_ >= 0) {
        const plan::Task& m = plan_->tasks[static_cast<std::size_t>(
            master_task_)];
        trace::record(m.name, "plan", m.lane, master0, master1, rank);
    }
    // Stage spans cover the whole team's work: stage s runs from the end of
    // the barrier that closed stage s-1 (region entry for the first stage)
    // to the end of its own barrier.
    double start = region0;
    for (std::size_t s = 0; s < nstages; ++s) {
        const plan::Task& t = plan_->tasks[stages_[s]];
        trace::record(t.name, "plan", t.lane, start, stage_end[s], rank);
        start = stage_end[s];
    }
    if (copy_task_ >= 0) {
        const plan::Task& c =
            plan_->tasks[static_cast<std::size_t>(copy_task_)];
        trace::record(c.name, "plan", c.lane, start, flip_end, rank);
    }
}

gpu::Stream& PlanExecutor::stream(int index) {
    return (*ctx_.streams)[static_cast<std::size_t>(index)];
}

void PlanExecutor::run_task_retrying(const plan::Task& task,
                                     std::size_t index) {
    // GpuFail verdicts surface as TransientError from the launch; the task
    // site stays in scope, so each retry advances the occurrence counter and
    // draws afresh — a p<1 flake terminates with certainty, and the bound
    // only guards against a probability-1 rule.
    constexpr int kMaxLaunchRetries = 64;
    for (int attempt = 0;; ++attempt) {
        try {
            run_task(task, index);
            return;
        } catch (const chaos::TransientError&) {
            if (attempt >= kMaxLaunchRetries) throw;
        }
    }
}

void PlanExecutor::sweep(std::size_t index, std::int64_t lo,
                         std::int64_t hi) {
    const core::RowSpace& rows = rows_[index];
    const int fuse = plan_->tasks[index].payload.fuse;
    if (fuse > 1) {
        core::apply_stencil_chain_rows(*ctx_.coeffs, *ctx_.cur, *ctx_.nxt,
                                       rows, lo, hi, fuse);
        return;
    }
    const core::FusedSource fsrc = step_source();
    if (plan_->var_coeff)
        core::apply_stencil_var_rows(*ctx_.coeff_cache, *ctx_.cur, *ctx_.nxt,
                                     rows, lo, hi, &fsrc, wrap_halo_);
    else
        core::apply_stencil_rows(*ctx_.coeffs, *ctx_.cur, *ctx_.nxt, rows, lo,
                                 hi, &fsrc, wrap_halo_);
}

void PlanExecutor::run_task(const plan::Task& task, std::size_t index) {
    const plan::Payload& p = task.payload;
    switch (task.op) {
        case plan::Op::PostRecvs:
            ctx_.exchange->post_recvs(*ctx_.comm);
            break;
        case plan::Op::PackSend:
            ctx_.exchange->start_dim(*ctx_.comm, *ctx_.cur, p.dim, ctx_.team);
            break;
        case plan::Op::Comm:
        case plan::Op::Wait:
            // A bulk Comm task blocks the host on the message flight; a Wait
            // task is the overlap variants' CPU-driven completion. Both are
            // the same substrate call; they differ in the lowered model.
            ctx_.exchange->wait_dim(*ctx_.comm, p.dim);
            break;
        case plan::Op::CommDma:
            // NIC progress happens inside the message runtime; the task
            // exists for the model and appears as a zero-length marker span.
            break;
        case plan::Op::Unpack:
            ctx_.exchange->unpack_dim(*ctx_.cur, p.dim, ctx_.team);
            break;
        case plan::Op::MasterExchange:
            // Only meaningful inside the TeamStages parallel region.
            break;
        case plan::Op::HaloFill:
            // dim >= 0 is the per-stage spelling emitted when open faces
            // interleave boundary overwrites between the stages; the copies
            // are value-identical to the fused three-stage fill. In a
            // wrap_halo_ plan only the first step's halo is stale: every
            // later one was written by the previous step's row epilogue.
            if (!wrap_halo_ || step_ == 0)
                halo_fill_parallel(*ctx_.team, *ctx_.cur, p.dim);
            break;
        case plan::Op::BoundaryFill:
            // dim -1 fills all three dimensions in order.
            for (int d = 0; d < 3; ++d)
                if (p.dim < 0 || p.dim == d)
                    core::fill_boundary_dim(*ctx_.cur, d, plan_->open_faces,
                                            ctx_.scenario->faces,
                                            *ctx_.boundary, ctx_.origin,
                                            base_level());
            break;
        case plan::Op::Stencil: {
            const std::int64_t rows = rows_[index].size();
            if (rows == 0) break;
            omp::LoopScheduler sched(0, rows, to_omp(p.schedule),
                                     ctx_.team->size());
            ctx_.team->parallel([&](int id) {
                omp::drain(sched, id, [&](std::int64_t lo, std::int64_t hi) {
                    sweep(index, lo, hi);
                });
            });
            break;
        }
        case plan::Op::Copy:
            // Step 3 as a flip (§IV-E's argument swap, on the host): the
            // storage moves, no point does. ExecContext pointers stay valid.
            ctx_.cur->swap(*ctx_.nxt);
            break;
        case plan::Op::HostPack:
            ctx_.staging->pack_inbound(*ctx_.cur);
            break;
        case plan::Op::HostUnpack:
            if (p.synced) stream(p.stream).synchronize();
            ctx_.staging->unpack_outbound(*ctx_.cur);
            break;
        case plan::Op::CopyH2D:
            ctx_.staging->enqueue_h2d_copy(stream(p.stream));
            break;
        case plan::Op::CopyD2H:
            ctx_.staging->enqueue_d2h_copy(stream(p.stream));
            break;
        case plan::Op::KernelPack:
            ctx_.staging->enqueue_pack_kernels(
                stream(p.stream), p.src_next ? *ctx_.d_nxt : *ctx_.d_cur);
            break;
        case plan::Op::KernelUnpack:
            ctx_.staging->enqueue_unpack_kernels(stream(p.stream),
                                                 *ctx_.d_cur);
            break;
        case plan::Op::KernelHalo:
            launch_periodic_halo(stream(p.stream), *ctx_.d_cur, p.dim,
                                 plan_->fuse);
            break;
        case plan::Op::KernelBoundary:
            launch_boundary_fill(stream(p.stream), *ctx_.d_cur, p.dim,
                                 plan_->open_faces, ctx_.scenario->faces,
                                 *ctx_.boundary, ctx_.origin, base_level());
            break;
        case plan::Op::KernelStencil:
        case plan::Op::KernelFace:
            if (plan_->var_coeff)
                launch_stencil_var(stream(p.stream), *ctx_.d_cur, *ctx_.d_nxt,
                                   p.regions[0], *ctx_.coeff_cache,
                                   step_source());
            else
                launch_stencil(stream(p.stream), *ctx_.device, *ctx_.d_cur,
                               *ctx_.d_nxt, p.regions[0], ctx_.cfg->block_x,
                               ctx_.cfg->block_y, step_source(), p.fuse);
            break;
        case plan::Op::Sync:
            for (int k = 0; k < p.sync_count; ++k) stream(k).synchronize();
            break;
        case plan::Op::Swap:
            std::swap(*ctx_.d_cur, *ctx_.d_nxt);
            break;
    }
}

}  // namespace advect::impl
