#include "sched/node_model.hpp"

#include "sched/report.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/coefficients.hpp"
#include "core/decomposition.hpp"
#include "core/halo.hpp"
#include "des/engine.hpp"
#include "plan/builders.hpp"

namespace advect::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Host-side per-synchronization overhead (stream sync, barrier): seconds.
constexpr double kSyncOverhead = 8e-6;

using des::TaskId;

const char* id_of(Code c) {
    switch (c) {
        case Code::A: return "single_task";
        case Code::B: return "mpi_bulk";
        case Code::C: return "mpi_nonblocking";
        case Code::D: return "mpi_thread_overlap";
        case Code::E: return "gpu_resident";
        case Code::F: return "gpu_mpi_bulk";
        case Code::G: return "gpu_mpi_streams";
        case Code::H: return "cpu_gpu_bulk";
        case Code::I: return "cpu_gpu_overlap";
    }
    return "?";
}

/// Geometry of the (largest) task subdomain and its communication surfaces.
struct Geometry {
    core::Extents3 local{};
    std::array<std::size_t, 3> face_bytes{};  // one face message per dim
};

Geometry make_geometry(const RunConfig& cfg) {
    Geometry g;
    const auto decomp = core::make_decomposition({cfg.n, cfg.n, cfg.n},
                                                 cfg.ntasks());
    g.local = decomp.local_extents(0);
    const auto plan = core::HaloPlan::make(g.local);
    for (int d = 0; d < 3; ++d)
        g.face_bytes[static_cast<std::size_t>(d)] =
            plan.message_count(d) * sizeof(double);
    return g;
}

/// The step plan the DES simulates: the representative task's. §IV-E is the
/// one implementation whose working set is not the decomposed subdomain (the
/// whole field is resident on the single device), so its plan is built on
/// the global extents.
plan::StepPlan lowering_plan(Code impl, const RunConfig& cfg,
                             const core::Extents3& local) {
    const core::Extents3 e = impl == Code::E
                                 ? core::Extents3{cfg.n, cfg.n, cfg.n}
                                 : local;
    return plan::build_step_plan(id_of(impl),
                                 {e, cfg.box_thickness, cfg.fuse});
}

/// Lowers one implementation's StepPlan into the discrete-event engine and
/// runs it: one symmetric task chain per MPI task on the node, durations
/// from advect::model, resource claims from each plan task's lane. This is
/// the modelling consumer of the plan IR — the executor in src/impl runs
/// the same plans for real (docs/ARCHITECTURE.md).
class Builder {
  public:
    Builder(Code impl, const RunConfig& cfg, int steps)
        : impl_(impl),
          cfg_(cfg),
          m_(cfg.machine),
          gpu_model_(m_.gpu ? &*m_.gpu : nullptr),
          T_(cfg.threads_per_task),
          tpn_(impl == Code::A || impl == Code::E ? 1 : cfg.tasks_per_node()),
          intra_(cfg.nodes == 1),
          geo_(make_geometry(cfg)),
          plan_(lowering_plan(impl, cfg, geo_.local)),
          steps_(steps) {
        cpu_ = eng_.add_resource("cpu", m_.cores_per_node());
        nic_ = eng_.add_resource("nic", 1);
        if (gpu_model_ != nullptr) {
            // §VI: "a larger number of GPUs" — each device brings its own
            // PCIe link and kernel engine(s). cc 2.0 runs kernels from two
            // streams concurrently; the SM-sharing cost is charged
            // explicitly where a long kernel overlaps short ones (§IV-I).
            const int gpus = std::max(1, m_.gpus_per_node);
            pcie_ = eng_.add_resource("pcie", gpus);
            gpu_ = eng_.add_resource(
                "gpu",
                gpus * (gpu_model_->props.concurrent_kernels ? 2 : 1));
        }
    }

    double makespan() {
        for (int t = 0; t < tpn_; ++t) {
            chain_ = t;
            injected_per_chain_.push_back(0.0);
            build_task_chain();
        }
        return eng_.run();
    }

    /// The plan's fuse factor: each replay of the plan ("step" in the
    /// engine) advances this many time steps.
    [[nodiscard]] int fuse() const { return std::max(1, plan_.fuse); }

    /// Injected chaos delay charged to the worst chain over the whole run
    /// (call after makespan()); the modelled straggler bound.
    [[nodiscard]] double max_injected() const {
        double mx = 0.0;
        for (const double v : injected_per_chain_) mx = std::max(mx, v);
        return mx;
    }

    /// Executed intervals as trace spans (call after makespan()). Each task
    /// lands on the lane of its first cpu/nic/pcie/gpu claim; taskless
    /// bookkeeping stays on the Host lane.
    [[nodiscard]] std::vector<trace::Span> spans() const {
        std::vector<trace::Span> out;
        out.reserve(eng_.trace().size());
        for (const auto& iv : eng_.trace()) {
            trace::Span s;
            s.name = eng_.task_name(iv.task);
            s.category = "des";
            s.lane = trace::Lane::Host;
            for (const auto& c : eng_.task_claims(iv.task)) {
                const auto lane =
                    trace::lane_from_name(eng_.resource_name(c.resource));
                if (lane != trace::Lane::Host) {
                    s.lane = lane;
                    break;
                }
            }
            s.t0 = iv.start;
            s.t1 = iv.end;
            out.push_back(std::move(s));
        }
        return out;
    }

    /// Resource utilizations after makespan(); names match the engine's.
    [[nodiscard]] std::vector<ResourceUsage> usages() const {
        std::vector<ResourceUsage> out;
        out.push_back({"cpu", eng_.utilization(cpu_)});
        out.push_back({"nic", eng_.utilization(nic_)});
        if (gpu_model_ != nullptr) {
            out.push_back({"pcie", eng_.utilization(pcie_)});
            out.push_back({"gpu", eng_.utilization(gpu_)});
        }
        return out;
    }

  private:
    // --- task helpers ---------------------------------------------------
    // Each consumes the chaos injection computed for the plan task being
    // lowered (take_inject), so the perturbation lands on whichever engine
    // task the Op maps to and is accounted to the current chain.
    TaskId cpu_task(std::string name, double dur, std::vector<TaskId> deps,
                    int units = -1) {
        return eng_.add_task(std::move(name), dur + take_inject(),
                             {{cpu_, units < 0 ? T_ : units}}, std::move(deps));
    }
    TaskId nic_task(std::string name, double dur, std::vector<TaskId> deps) {
        return eng_.add_task(std::move(name), dur + take_inject(), {{nic_, 1}},
                             std::move(deps));
    }
    TaskId cpu_nic_task(std::string name, double dur,
                        std::vector<TaskId> deps) {
        return eng_.add_task(std::move(name), dur + take_inject(),
                             {{cpu_, T_}, {nic_, 1}}, std::move(deps));
    }
    /// A dependency-only marker (post_recvs, swap): zero duration, no claims
    /// — unless a TaskDelay rule stalls the issuing rank here.
    TaskId free_task(std::string name, std::vector<TaskId> deps) {
        return eng_.add_task(std::move(name), take_inject(), {},
                             std::move(deps));
    }
    /// Context-switch penalty per device operation when several MPI tasks
    /// share one GPU (pre-MPS contexts serialize and switching costs).
    double ctx() const {
        return tpn_ > std::max(1, m_.gpus_per_node)
                   ? gpu_model_->ctx_switch_us * 1e-6
                   : 0.0;
    }
    TaskId pcie_task(std::string name, double dur, std::vector<TaskId> deps) {
        return eng_.add_task(std::move(name), dur + ctx() + take_inject(),
                             {{pcie_, 1}}, std::move(deps));
    }
    TaskId gpu_task(std::string name, double dur, std::vector<TaskId> deps) {
        // GpuFail retries replay the kernel; the extra repetitions count as
        // injected time for the absorbed-fraction accounting.
        const double mult = take_retry();
        if (mult > 1.0 && !injected_per_chain_.empty())
            injected_per_chain_.back() += (mult - 1.0) * dur;
        return eng_.add_task(std::move(name),
                             dur * mult + ctx() + take_inject(), {{gpu_, 1}},
                             std::move(deps));
    }

    // --- durations --------------------------------------------------------
    double ovh() const { return m_.region_overhead_s(T_); }
    double comm_bytes(std::size_t bytes) const {
        // tasks_per_node = 1 here: NIC sharing among the node's tasks is
        // modelled by the nic resource in the engine, not by the rate.
        return model::comm_time(m_, bytes, 2, 1, intra_);
    }
    /// Packing or unpacking both faces of one dimension (payload.bytes is
    /// already the two-face total).
    double pack_bytes(std::size_t bytes) const {
        return model::cpu_move_time(m_, bytes, T_) + (T_ > 1 ? ovh() : 0.0);
    }
    /// Only the wire-transfer part of a message progresses without MPI calls
    /// (NIC DMA); the per-message latency/matching part is software and is
    /// paid at completion time — so the overlap saving shrinks to nothing as
    /// messages become latency-dominated at high core counts.
    double dma_alpha_part(std::size_t bytes) const {
        return std::min(comm_bytes(bytes), 2.0 * m_.net_alpha_us * 1e-6);
    }
    double dma_bw_part(std::size_t bytes) const {
        return comm_bytes(bytes) - dma_alpha_part(bytes);
    }
    /// Re-reading the three planes around the boundary shell in a separate
    /// pass costs extra memory traffic the fused sweep does not pay.
    double cache_revisit(std::size_t points) const {
        return static_cast<double>(points) * 24.0 /
               (m_.task_bw_gbs(T_) * 1e9);
    }
    double kernel(core::Extents3 region) const {
        return model::kernel_time(*gpu_model_, region, cfg_.block_x,
                                  cfg_.block_y);
    }
    /// CPU stencil duration of one (possibly fused) payload: the fused
    /// variant charges the redundant-pyramid flops but a single memory pass
    /// (docs/PERF.md "Temporal blocking").
    double stencil_dur(const plan::Payload& p, double eff) const {
        if (p.fuse > 1)
            return model::cpu_fused_stencil_time(m_, p.points, p.fused_points,
                                                 T_, eff);
        return model::cpu_stencil_time(m_, p.points, T_, eff);
    }

    /// §IV-D: closed-form duration of the fused master-exchange/guided-
    /// interior parallel region. The master thread runs the serial exchange
    /// (single-thread strided pack/unpack at ~half streaming rate, plus the
    /// wire time) and then joins the guided loop the other T-1 threads have
    /// been draining.
    double team_region_dur(const plan::Payload& p) const {
        double master = 0.0, comm_total = 0.0;
        for (int d = 0; d < 3; ++d) {
            master += 4.0 * model::cpu_move_time(
                                m_,
                                2 * geo_.face_bytes[static_cast<std::size_t>(d)],
                                1);
            comm_total += comm_bytes(geo_.face_bytes[static_cast<std::size_t>(d)]);
        }
        master += comm_total;
        double w = stencil_dur(p, 1.0) / m_.guided_eff;
        // Guided scheduling overhead: ~T * ln(rows/T) chunk claims.
        const double rows = std::max(
            2.0, static_cast<double>(geo_.local.ny) * geo_.local.nz / T_);
        w += T_ * std::log(rows) * m_.guided_chunk_us * 1e-6;
        if (T_ == 1) return master + w;
        const double frac = static_cast<double>(T_ - 1) / T_;
        if (w <= master * frac) return std::max(master, w / frac);
        return master + (w - master * frac);
    }

    /// §IV-D: total wire time of the master's serial exchange, occupying the
    /// NIC for the whole parallel region's communication phase.
    double master_comm_dur() const {
        double comm_total = 0.0;
        for (int d = 0; d < 3; ++d)
            comm_total +=
                comm_bytes(geo_.face_bytes[static_cast<std::size_t>(d)]);
        return comm_total;
    }

    // --- chaos lowering ---------------------------------------------------
    /// The injection the current engine task should absorb; set by
    /// compute_injection, consumed (and charged to the chain) by the task
    /// helpers above.
    double take_inject() {
        const double v = inject_;
        inject_ = 0.0;
        if (v > 0.0 && !injected_per_chain_.empty())
            injected_per_chain_.back() += v;
        return v;
    }
    double take_retry() {
        const double m = retry_mult_;
        retry_mult_ = 1.0;
        return m;
    }
    bool model_consume_fire(int rule_idx) {
        const int cap =
            cfg_.faults->rules[static_cast<std::size_t>(rule_idx)].max_fires;
        if (cap < 0) return true;
        int& n = fires_[{rule_idx, chain_}];
        if (n >= cap) return false;
        ++n;
        return true;
    }

    /// Draw this plan task's perturbation at (chain, step) — the same pure
    /// draws the runtime injector makes, mapped onto the lowered graph:
    /// message faults land on the flight tasks (Comm/CommDma/
    /// MasterExchange, where delivery delay is felt), kernel faults on the
    /// kernel tasks, task delays on any task. A dropped message charges the
    /// receiver's timeout (the retransmission round trip).
    void compute_injection(const plan::Task& t, int step) {
        inject_ = 0.0;
        retry_mult_ = 1.0;
        if (cfg_.faults == nullptr) return;
        const chaos::FaultPlan& fp = *cfg_.faults;
        using chaos::FaultKind;
        const int nrules = static_cast<int>(fp.rules.size());

        const bool flight = t.op == plan::Op::Comm ||
                            t.op == plan::Op::CommDma ||
                            t.op == plan::Op::MasterExchange;
        if (flight) {
            int dim_lo = t.payload.dim, dim_hi = t.payload.dim + 1;
            if (t.op == plan::Op::MasterExchange) {
                dim_lo = 0;
                dim_hi = 3;
            }
            for (int d = dim_lo; d < dim_hi; ++d) {
                const char* site = chaos::send_site_name(d);
                // The dimension's two face messages draw independently
                // (occurrences 0 and 1, as at runtime); they fly
                // concurrently, so the flight stretches by the later one.
                double occ_delay[2] = {0.0, 0.0};
                bool dropped = false;
                for (int ri = 0; ri < nrules; ++ri) {
                    const auto& rule =
                        fp.rules[static_cast<std::size_t>(ri)];
                    if (rule.kind != FaultKind::MsgDelay &&
                        rule.kind != FaultKind::MsgDrop)
                        continue;
                    if (!chaos::rule_matches(rule, chain_, step, site))
                        continue;
                    for (int occ = 0; occ < 2; ++occ) {
                        if (!chaos::draw_fires(fp, ri, chain_, step, site,
                                               occ))
                            continue;
                        if (rule.kind == FaultKind::MsgDelay) {
                            const double a = chaos::draw_amount_us(
                                fp, ri, chain_, step, site, occ);
                            // Zero-length delays are not fires, matching the
                            // runtime injector.
                            if (a <= 0.0) continue;
                            if (!model_consume_fire(ri)) continue;
                            occ_delay[occ] += 1e-6 * a;
                        } else {
                            if (!model_consume_fire(ri)) continue;
                            dropped = true;
                        }
                    }
                }
                inject_ += std::max(occ_delay[0], occ_delay[1]);
                if (dropped) inject_ += fp.timeout_s;
            }
        }

        const bool kernel = t.op == plan::Op::KernelPack ||
                            t.op == plan::Op::KernelUnpack ||
                            t.op == plan::Op::KernelHalo ||
                            t.op == plan::Op::KernelBoundary ||
                            t.op == plan::Op::KernelStencil ||
                            t.op == plan::Op::KernelFace;
        for (int ri = 0; ri < nrules; ++ri) {
            const auto& rule = fp.rules[static_cast<std::size_t>(ri)];
            if (rule.kind == FaultKind::TaskDelay ||
                (kernel && rule.kind == FaultKind::GpuSlow)) {
                if (!chaos::rule_matches(rule, chain_, step, t.name))
                    continue;
                if (!chaos::draw_fires(fp, ri, chain_, step, t.name, 0))
                    continue;
                const double a =
                    chaos::draw_amount_us(fp, ri, chain_, step, t.name, 0);
                if (a <= 0.0) continue;  // not a fire, as at runtime
                if (!model_consume_fire(ri)) continue;
                inject_ += 1e-6 * a;
            } else if (kernel && rule.kind == FaultKind::GpuFail) {
                if (!chaos::rule_matches(rule, chain_, step, t.name))
                    continue;
                // Each fired occurrence is one failed launch the executor
                // replays; the occurrence advances per retry, as at runtime.
                for (int occ = 0; occ < 64; ++occ) {
                    if (!chaos::draw_fires(fp, ri, chain_, step, t.name, occ))
                        break;
                    if (!model_consume_fire(ri)) break;
                    retry_mult_ += 1.0;
                }
            }
        }
    }

    // --- the lowering -----------------------------------------------------
    /// One engine task per plan task, duration by Op from the calibrated
    /// cost models, resource claims by lane.
    TaskId lower_task(const plan::Task& t, std::vector<TaskId> deps,
                      int step) {
        compute_injection(t, step);
        const plan::Payload& p = t.payload;
        switch (t.op) {
            case plan::Op::PostRecvs:
            case plan::Op::Swap:
                return free_task(t.name, std::move(deps));
            case plan::Op::PackSend:
            case plan::Op::Unpack:
                return cpu_task(t.name, pack_bytes(p.bytes), std::move(deps));
            case plan::Op::Comm:
                return nic_task(t.name, comm_bytes(p.bytes), std::move(deps));
            case plan::Op::CommDma:
                // With the dedicated progress engine the whole transfer —
                // latency/matching software included — advances in the
                // background thread; without it only the NIC-DMA bandwidth
                // part times the MPI-internal progress fraction does.
                if (cfg_.progress_engine)
                    return nic_task(t.name, comm_bytes(p.bytes),
                                    std::move(deps));
                return nic_task(t.name, m_.mpi_progress * dma_bw_part(p.bytes),
                                std::move(deps));
            case plan::Op::Wait:
                // Progress engine on: completion is just the library calls.
                // Off: the rank pays the latency part plus whatever fraction
                // of the wire time did not progress while it computed.
                if (cfg_.progress_engine)
                    return cpu_nic_task(t.name,
                                        4.0 * m_.overlap_call_us * 1e-6,
                                        std::move(deps));
                return cpu_nic_task(
                    t.name,
                    dma_alpha_part(p.bytes) +
                        4.0 * m_.overlap_call_us * 1e-6 +
                        (1.0 - m_.mpi_progress) * dma_bw_part(p.bytes),
                    std::move(deps));
            case plan::Op::MasterExchange:
                return nic_task(t.name, master_comm_dur(), std::move(deps));
            case plan::Op::HaloFill:
            case plan::Op::BoundaryFill:
                // The boundary overwrite moves its open recv slabs, the same
                // memory-bound row traffic as the periodic fill.
                return cpu_task(t.name,
                                model::cpu_move_time(m_, p.bytes, T_) + ovh(),
                                std::move(deps));
            case plan::Op::Stencil: {
                if (plan_.mode == plan::Mode::TeamStages &&
                    p.schedule == plan::Sched::Guided)
                    return cpu_task(t.name, team_region_dur(p) + ovh(),
                                    std::move(deps));
                if (p.points == 0)  // empty overlap slab on thin subdomains
                    return free_task(t.name, std::move(deps));
                const double eff = p.boundary_eff ? m_.boundary_eff : 1.0;
                return cpu_task(
                    t.name,
                    stencil_dur(p, eff) +
                        (p.cache_revisit ? cache_revisit(p.points) : 0.0) +
                        ovh(),
                    std::move(deps));
            }
            case plan::Op::Copy:
                return cpu_task(t.name,
                                model::cpu_copy_time(m_, p.points, T_) + ovh(),
                                std::move(deps));
            case plan::Op::HostPack:
            case plan::Op::HostUnpack:
                return cpu_task(t.name,
                                model::host_stage_time(*gpu_model_, p.bytes) +
                                    (p.synced ? kSyncOverhead : 0.0),
                                std::move(deps));
            case plan::Op::CopyH2D:
            case plan::Op::CopyD2H:
                return pcie_task(
                    t.name,
                    p.coupled_pcie
                        ? model::pcie_time_coupled(*gpu_model_, p.bytes)
                        : model::pcie_time(*gpu_model_, p.bytes),
                    std::move(deps));
            case plan::Op::KernelPack:
            case plan::Op::KernelUnpack:
            case plan::Op::KernelHalo:
            case plan::Op::KernelBoundary:
                return gpu_task(t.name,
                                model::stage_kernel_time(*gpu_model_, p.bytes),
                                std::move(deps));
            case plan::Op::KernelStencil: {
                double dur =
                    p.fuse > 1
                        ? model::fused_kernel_time(
                              *gpu_model_, p.regions.front().extents(),
                              cfg_.block_x, cfg_.block_y, p.fuse,
                              p.fused_points)
                        : kernel(p.regions.front().extents());
                // When the device runs kernels concurrently, the contended
                // kernels steal SM throughput from this one: conserve total
                // work by adding their time.
                if (gpu_model_->props.concurrent_kernels)
                    for (const auto& r : p.contended)
                        dur += model::face_kernel_time(*gpu_model_,
                                                       r.volume());
                return gpu_task(t.name, dur, std::move(deps));
            }
            case plan::Op::KernelFace:
                // Fused faces evaluate the whole redundant pyramid.
                return gpu_task(
                    t.name,
                    model::face_kernel_time(
                        *gpu_model_, p.fuse > 1 ? p.fused_points : p.points),
                    std::move(deps));
            case plan::Op::Sync:
                return cpu_task(t.name, p.sync_count * kSyncOverhead,
                                std::move(deps));
        }
        return free_task(t.name, std::move(deps));
    }

    /// Replay the plan `steps_` times: in-step dependencies map through the
    /// plan's indices; a task with no in-step dependencies roots on the
    /// previous step's terminal, or on its cross_step_dep task of the
    /// previous step (§IV-G's exchange consumes last step's staged shell).
    void build_task_chain() {
        TaskId prev_terminal = cpu_task("anchor", 0.0, {});  // step-0 anchor
        std::vector<TaskId> prev_ids;  // plan index -> previous step's task
        for (int s = 0; s < steps_; ++s) {
            std::vector<TaskId> cur;
            cur.reserve(plan_.tasks.size());
            for (const auto& t : plan_.tasks) {
                std::vector<TaskId> deps;
                for (const int d : t.deps)
                    deps.push_back(cur[static_cast<std::size_t>(d)]);
                if (deps.empty()) {
                    const int c = t.cross_step_dep.empty()
                                      ? -1
                                      : plan_.find(t.cross_step_dep);
                    deps.push_back(c >= 0 && !prev_ids.empty()
                                       ? prev_ids[static_cast<std::size_t>(c)]
                                       : prev_terminal);
                }
                if (t.also_prev_terminal) deps.push_back(prev_terminal);
                cur.push_back(lower_task(t, std::move(deps), s));
            }
            prev_terminal = cur[static_cast<std::size_t>(plan_.terminal)];
            prev_ids = std::move(cur);
        }
    }

    Code impl_;
    const RunConfig& cfg_;
    const model::MachineSpec& m_;
    const model::GpuModel* gpu_model_;
    int T_;
    int tpn_;
    bool intra_;
    Geometry geo_;
    plan::StepPlan plan_;
    int steps_;
    des::Engine eng_;
    des::ResourceId cpu_{}, nic_{}, pcie_{}, gpu_{};

    // Chaos lowering state (all inert when cfg_.faults == nullptr).
    int chain_ = 0;                 ///< current task chain = model "rank"
    double inject_ = 0.0;           ///< pending seconds for the next task
    double retry_mult_ = 1.0;       ///< pending kernel replay factor
    std::vector<double> injected_per_chain_;
    std::map<std::pair<int, int>, int> fires_;  ///< (rule, chain) -> fires
};

bool config_valid(Code impl, const RunConfig& cfg) {
    const bool needs_gpu = impl == Code::E || impl == Code::F ||
                           impl == Code::G || impl == Code::H ||
                           impl == Code::I;
    if (needs_gpu && !cfg.machine.gpu) return false;
    if ((impl == Code::A || impl == Code::E) && cfg.nodes != 1) return false;
    if (cfg.threads_per_task > cfg.machine.cores_per_node()) return false;
    const auto total = static_cast<std::size_t>(cfg.n) * cfg.n * cfg.n;
    if (static_cast<std::size_t>(cfg.ntasks()) > total) return false;
    if (needs_gpu && impl != Code::E &&
        !model::block_fits(*cfg.machine.gpu, cfg.block_x, cfg.block_y))
        return false;
    return true;
}

}  // namespace

Code code_from_id(const std::string& id) {
    if (id == "single_task") return Code::A;
    if (id == "mpi_bulk") return Code::B;
    if (id == "mpi_nonblocking") return Code::C;
    if (id == "mpi_thread_overlap") return Code::D;
    if (id == "gpu_resident") return Code::E;
    if (id == "gpu_mpi_bulk") return Code::F;
    if (id == "gpu_mpi_streams") return Code::G;
    if (id == "cpu_gpu_bulk") return Code::H;
    if (id == "cpu_gpu_overlap") return Code::I;
    throw std::out_of_range("unknown implementation id: " + id);
}

std::string code_label(Code c) {
    switch (c) {
        case Code::A: return "IV-A single task";
        case Code::B: return "IV-B bulk-synchronous MPI";
        case Code::C: return "IV-C nonblocking-MPI overlap";
        case Code::D: return "IV-D OpenMP-thread overlap";
        case Code::E: return "IV-E GPU resident";
        case Code::F: return "IV-F GPU + bulk-sync MPI";
        case Code::G: return "IV-G GPU + stream overlap";
        case Code::H: return "IV-H CPU+GPU bulk-sync";
        case Code::I: return "IV-I CPU+GPU full overlap";
    }
    return "?";
}

plan::StepPlan plan_for(Code impl, const RunConfig& cfg) {
    return lowering_plan(impl, cfg, make_geometry(cfg).local);
}

double step_time(Code impl, const RunConfig& cfg) {
    if (!config_valid(impl, cfg)) return kInf;
    try {
        constexpr int kShort = 2, kLong = 6;
        Builder a(impl, cfg, kShort);
        Builder b(impl, cfg, kLong);
        const double span_a = a.makespan();
        const double span_b = b.makespan();
        // Each plan replay advances `fuse` time steps; report per time step.
        const double step = (span_b - span_a) / (kLong - kShort) / a.fuse();
        return step > 0.0 ? step : kInf;
    } catch (const std::invalid_argument&) {
        return kInf;  // infeasible geometry (e.g. box thickness too large)
    }
}

PerturbedStep perturbed_step_time(Code impl, const RunConfig& cfg) {
    PerturbedStep r;
    RunConfig base = cfg;
    base.faults = nullptr;
    r.base_step = step_time(impl, base);
    r.step = step_time(impl, cfg);
    if (cfg.faults == nullptr || !config_valid(impl, cfg)) return r;
    try {
        // Injected-per-step via the same two-run differencing as step_time,
        // so the absorbed fraction compares like with like.
        constexpr int kShort = 2, kLong = 6;
        Builder a(impl, cfg, kShort);
        Builder b(impl, cfg, kLong);
        a.makespan();
        b.makespan();
        r.injected_per_step = (b.max_injected() - a.max_injected()) /
                              (kLong - kShort) / a.fuse();
    } catch (const std::invalid_argument&) {
        // infeasible geometry: leave the infinite defaults
    }
    return r;
}

double model_gflops(Code impl, const RunConfig& cfg) {
    const double t = step_time(impl, cfg);
    if (!std::isfinite(t)) return 0.0;
    const double flops = static_cast<double>(cfg.n) * cfg.n * cfg.n *
                         core::kFlopsPerPoint;
    return flops / t / 1e9;
}

std::vector<trace::Span> step_spans(Code impl, const RunConfig& cfg,
                                    int steps) {
    if (!config_valid(impl, cfg)) return {};
    try {
        Builder b(impl, cfg, steps);
        b.makespan();
        return b.spans();
    } catch (const std::invalid_argument&) {
        return {};
    }
}

StepReport step_report(Code impl, const RunConfig& cfg) {
    StepReport r;
    r.step_seconds = kInf;
    if (!config_valid(impl, cfg)) return r;
    try {
        Builder b(impl, cfg, /*steps=*/6);
        const double span = b.makespan();
        r.resources = b.usages();
        // Steady-state step time from a second, shorter run (matches
        // step_time's estimator).
        r.step_seconds = step_time(impl, cfg);
        if (!std::isfinite(r.step_seconds)) return r;
        const double flops = static_cast<double>(cfg.n) * cfg.n * cfg.n *
                             core::kFlopsPerPoint;
        r.gflops = flops / r.step_seconds / 1e9;
        double busy = 0.0;
        for (const auto& u : r.resources) busy += u.utilization * span;
        r.overlap_factor = busy / span;
    } catch (const std::invalid_argument&) {
        r.step_seconds = kInf;
    }
    return r;
}

}  // namespace advect::sched
