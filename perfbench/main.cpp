/// \file main.cpp
/// The end-to-end benchmark program (README.md in this directory).
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--socket <path>] [--trace-out <path>]
///
/// Runs one seeded workload for about <s> seconds and prints, as the last
/// line of stdout, {"correct", "attempted", "failed", "metrics"}: the
/// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
/// Exits 1 when any operation failed, 2 on bad arguments.

#include <cpuid.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/decomposition.hpp"
#include "core/halo.hpp"
#include "core/json.hpp"
#include "core/problem.hpp"
#include "core/stencil.hpp"
#include "impl/launch.hpp"
#include "impl/registry.hpp"
#include "layers.hpp"
#include "plan/builders.hpp"
#include "probes.hpp"
#include "service.hpp"
#include "trace/export.hpp"

namespace perfbench {

namespace core = advect::core;
namespace impl = advect::impl;
namespace json = advect::core::json;
namespace plan = advect::plan;

std::vector<std::string> impl_ids() {
    std::vector<std::string> ids;
    for (const auto& e : impl::registry()) ids.push_back(e.id);
    return ids;
}

int ranks_for(const std::string& impl_id, int cpu_ranks) {
    const auto& e = impl::find_implementation(impl_id);
    if (!e.uses_mpi) return 1;
    return e.uses_gpu ? std::min(cpu_ranks, 2) : cpu_ranks;
}

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string socket;
    std::string trace_out;  ///< where the traced run writes the call spans
};

/// Share of --seconds the solver phase gets; the service phase gets the
/// rest, in kSlices alternating slices.
constexpr double kSolverShare = 0.6;
constexpr int kSlices = 5;
/// Quantile of the per-solve rates reported as `mlups.<impl>` for an
/// implementation that runs one rank (the others report the median).
constexpr double kOneRankQuantile = 0.25;

/// One workload: the problem every implementation advances (ntasks is the
/// rank count of the CPU implementations) and the transports each runs over.
struct Workload {
    std::string name;
    impl::SolverConfig cfg;
    std::vector<impl::TransportKind> transports{impl::TransportKind::InProcess};
};

Workload make_workload(const std::string& name) {
    Workload w;
    w.name = name;
    auto& cfg = w.cfg;
    cfg.ntasks = 4;
    cfg.threads_per_task = 1;
    if (name == "dense-inproc") {
        // The paper's dense Lax-Wendroff sweep: all 27 terms live.
        cfg.problem = core::AdvectionProblem::standard(64);
        cfg.problem.velocity = {1.0, 0.5, 0.25};
        cfg.problem.nu = 0.4;
        cfg.steps = 32;
    } else if (name == "courant1-mesh") {
        cfg.problem = core::AdvectionProblem::standard(64);
        cfg.steps = 32;
        w.transports = {impl::TransportKind::Socket, impl::TransportKind::Tcp};
    } else if (name == "rotating-inflow") {
        cfg.problem = core::AdvectionProblem::standard(64);
        cfg.problem.scenario = core::scenario_by_name("rotating-inflow");
        // The policy of `advectctl launch` and advectd for variable
        // velocity: a safe Courant fraction of the larger max |c|.
        cfg.problem.nu = 0.5 / cfg.problem.velocity_field().max_abs();
        cfg.steps = 24;
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (dense-inproc, courant1-mesh, "
                                    "rotating-inflow)");
    }
    return w;
}

/// Bitwise comparison of the interiors of two same-shaped fields.
bool bitwise_equal(const core::Field3& a, const core::Field3& b) {
    const auto n = a.extents();
    if (!(n == b.extents())) return false;
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            if (std::memcmp(a.ptr(0, j, k), b.ptr(0, j, k),
                            sizeof(double) * static_cast<std::size_t>(n.nx)) != 0)
                return false;
    return true;
}

struct Cell {
    std::string impl;
    impl::TransportKind transport;
    impl::SolverConfig cfg;
};

struct CellSamples {
    std::vector<double> loop_s, setup_s, traced_loop_s;
    std::vector<LayerSample> layers;
};

/// The solver phase: every (implementation, transport) cell, first a
/// discarded warm-up solve each, then repetitions in a seeded order. Every
/// solve is checked bitwise against the reference; with `trace`, each
/// repetition runs every cell twice — once untraced, once traced — in
/// seeded order.
class SolverPhase {
  public:
    SolverPhase(const Workload& w, bool trace, Rng rng, CallLog& log, Tally& tally)
        : trace_(trace), rng_(rng), log_(log), tally_(tally),
          // The reference, once per workload, outside the timers.
          reference_(core::run_reference(w.cfg.problem, w.cfg.steps)) {
        for (const auto& id : impl_ids())
            for (const auto tr : w.transports) {
                Cell c{id, tr, w.cfg};
                c.cfg.ntasks = ranks_for(id, w.cfg.ntasks);
                cells_.push_back(std::move(c));
            }
        order_.resize(cells_.size());
        for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
        rng_.shuffle(order_);
        for (const std::size_t i : order_) solve(cells_[i], trace_, false);
    }

    /// Run whole repetitions (at least one) until `budget` seconds are
    /// spent or the next one would overrun.
    void run_for(double budget) {
        const double deadline = now_s() + budget;
        do {
            const double t0 = now_s();
            rng_.shuffle(order_);
            for (const std::size_t i : order_) {
                if (!trace_) {
                    solve(cells_[i], false, true);
                } else {
                    const bool traced_first = rng_.below(2) == 0;
                    solve(cells_[i], traced_first, true);
                    solve(cells_[i], !traced_first, true);
                }
            }
            rep_s_ = now_s() - t0;
            ++reps_;
        } while (now_s() + rep_s_ < deadline);
    }

    [[nodiscard]] const std::map<std::string, CellSamples>& samples() const {
        return samples_;
    }
    [[nodiscard]] int repetitions() const { return reps_; }
    [[nodiscard]] std::size_t cells() const { return cells_.size(); }

  private:
    void solve(const Cell& c, bool traced, bool keep) {
        impl::LaunchOptions opts;
        opts.transport = c.transport;
        opts.progress = advect::msg::ProgressMode::Thread;
        opts.trace = traced;
        ++tally_.attempted;
        const std::string what = c.impl + "/" + impl::transport_name(c.transport);
        std::optional<impl::LaunchReport> rep;
        double call = 0.0;
        try {
            call = log_.time("launch_solver:" + what, [&] {
                rep = impl::launch_solver(c.impl, c.cfg, opts);
            });
        } catch (const std::exception& e) {
            tally_.fail(what + ": " + e.what());
            return;
        }
        if (!bitwise_equal(rep->result.state, reference_)) {
            tally_.fail(what + ": final state differs from core::run_reference");
            return;
        }
        if (!keep) return;
        const double loop = rep->result.wall_seconds;
        CellSamples& s = samples_[c.impl];
        if (!traced) {
            s.loop_s.push_back(loop);
            s.setup_s.push_back(call - loop);
            return;
        }
        s.traced_loop_s.push_back(loop);
        LayerSample l = attribute(c.impl, c.cfg, rep->spans, loop);
        if (!l.error.empty())
            tally_.fail(what + ": " + l.error);
        else if (l.closure_error > 0.01)
            tally_.fail(what + ": task spans overrun the loop wall by " +
                        std::to_string(100.0 * l.closure_error) + "%");
        else
            s.layers.push_back(std::move(l));
    }

    bool trace_;
    Rng rng_;
    CallLog& log_;
    Tally& tally_;
    const core::Field3 reference_;
    std::vector<Cell> cells_;
    std::vector<std::size_t> order_;
    std::map<std::string, CellSamples> samples_;
    double rep_s_ = 0.0;
    int reps_ = 0;
};

/// Live stencil terms after StencilPlan compaction (27 on the variable
/// path, which sums every term).
int live_terms(const core::AdvectionProblem& p) {
    if (!p.constant_coefficients()) return 27;
    const core::Field3 shape(core::Extents3{8, 8, 8});
    return core::StencilPlan::make(p.coeffs(), shape).terms;
}

/// Bytes one step's halo exchange moves over every rank of `d` (computed
/// from the HaloPlan volumes: both faces of each dimension, 8 bytes a
/// point).
double exchange_bytes(const core::Decomp3& d) {
    double bytes = 0.0;
    for (int r = 0; r < d.nranks(); ++r) {
        const auto hp = core::HaloPlan::make(d.local_extents(r));
        for (int dim = 0; dim < 3; ++dim) bytes += 2.0 * 8.0 * hp.message_count(dim);
    }
    return bytes;
}

/// One per-implementation layer metric: which plans report it and how it
/// is read off a LayerSample.
struct LayerMetric {
    const char* name;
    const char* unit;
    /// Whether an implementation reports it, given its periodic plan and
    /// its rotating-inflow plan.
    bool (*present)(const plan::StepPlan& periodic, const plan::StepPlan& open);
    double (*value)(const LayerSample& l);
};

bool has(const plan::StepPlan& p, std::initializer_list<plan::Op> ops) {
    for (const auto& t : p.tasks)
        for (const auto op : ops)
            if (t.op == op) return true;
    return false;
}

double row(const LayerSample& l, Row r) { return l.row_s[static_cast<std::size_t>(r)]; }

using plan::Op;
using P = const plan::StepPlan&;
const LayerMetric kLayerMetrics[] = {
    {"core.stencil_s", "s", [](P p, P) { return has(p, {Op::Stencil}); },
     [](const LayerSample& l) { return row(l, Row::Stencil); }},
    {"core.copy_s", "s", [](P p, P) { return has(p, {Op::Copy}); },
     [](const LayerSample& l) { return row(l, Row::Copy); }},
    {"core.halo_fill_s", "s", [](P p, P) { return has(p, {Op::HaloFill}); },
     [](const LayerSample& l) { return row(l, Row::HaloFill); }},
    // Team-stage plans fill boundaries inside the master exchange, so that
    // time lands in msg.wait_s instead.
    {"core.boundary_fill_share", "%",
     [](P, P o) { return has(o, {Op::BoundaryFill}) && o.mode == plan::Mode::HostIssue; },
     [](const LayerSample& l) { return 100.0 * row(l, Row::BoundaryFill) / l.wall_s; }},
    {"core.pack_s", "s", [](P p, P) { return has(p, {Op::PackSend, Op::HostPack}); },
     [](const LayerSample& l) { return row(l, Row::Pack); }},
    {"core.unpack_s", "s", [](P p, P) { return has(p, {Op::Unpack, Op::HostUnpack}); },
     [](const LayerSample& l) { return row(l, Row::Unpack); }},
    {"msg.wait_s", "s",
     [](P p, P) { return has(p, {Op::Comm, Op::Wait, Op::MasterExchange}); },
     [](const LayerSample& l) { return row(l, Row::Wait); }},
    {"gpu.sync_s", "s", [](P p, P) { return has(p, {Op::Sync}); },
     [](const LayerSample& l) { return row(l, Row::Sync); }},
    {"gpu.kernel_busy_s", "s", [](P p, P) { return p.uses_gpu; },
     [](const LayerSample& l) { return l.kernel_busy_s; }},
    {"gpu.pcie_busy_s", "s", [](P p, P) { return has(p, {Op::CopyH2D, Op::CopyD2H}); },
     [](const LayerSample& l) { return l.pcie_busy_s; }},
    {"impl.unattributed_s", "s", [](P, P) { return true; },
     [](const LayerSample& l) { return l.unattributed_s; }},
    {"impl.overlap_factor", "ratio", [](P, P) { return true; },
     [](const LayerSample& l) { return l.overlap_factor; }},
    {"msg.sends_per_step", "count", [](P p, P) { return p.uses_comm; },
     [](const LayerSample& l) { return l.sends_per_step; }},
};

/// Add every per-implementation layer metric to `out`: the median over the
/// implementation's traced solves. Which implementations report a metric
/// is decided on a canonical geometry, so the printed set is the same on
/// every workload.
void add_layer_metrics(const std::map<std::string, CellSamples>& cells, Metrics& out) {
    const core::Extents3 n{32, 32, 32};
    for (const auto& id : impl_ids()) {
        const auto d = core::make_decomposition(n, ranks_for(id, 4));
        const plan::StepPlan periodic = plan::build_step_plan(id, {d.local_extents(0)});
        const plan::StepPlan open = plan::build_step_plan(
            id, {d.local_extents(0), 1, 1,
                 core::local_open_faces(core::scenario_by_name("rotating-inflow"), d, 0),
                 true});
        const auto it = cells.find(id);
        for (const auto& m : kLayerMetrics) {
            if (!m.present(periodic, open)) continue;
            std::vector<double> v;
            if (it != cells.end())
                for (const auto& l : it->second.layers) v.push_back(m.value(l));
            out[std::string(m.name) + "." + id] = {median(std::move(v)), m.unit};
        }
    }
}

/// CPU brand string and L2/L3 sizes from cpuid (no files read).
struct HostFacts {
    std::string cpu;
    double l2_mib = 0.0, l3_mib = 0.0;
};
HostFacts host_facts() {
    HostFacts h;
    unsigned a, b, c, d;
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf)
        if (__get_cpuid(0x80000002u + leaf, &a, &b, &c, &d)) {
            std::memcpy(brand + 16 * leaf, &a, 4);
            std::memcpy(brand + 16 * leaf + 4, &b, 4);
            std::memcpy(brand + 16 * leaf + 8, &c, 4);
            std::memcpy(brand + 16 * leaf + 12, &d, 4);
        }
    h.cpu = brand;
    for (unsigned sub = 0; sub < 8; ++sub) {
        if (!__get_cpuid_count(4, sub, &a, &b, &c, &d) || (a & 0x1f) == 0) break;
        const unsigned level = (a >> 5) & 0x7;
        const double bytes = double((b >> 22) + 1) * double(((b >> 12) & 0x3ff) + 1) *
                             double((b & 0xfff) + 1) * double(c + 1);
        if (level == 2) h.l2_mib = bytes / (1 << 20);
        if (level == 3) h.l3_mib = bytes / (1 << 20);
    }
    return h;
}

/// `json::dump` on one line (it indents; strings never hold a raw newline).
std::string one_line(const json::Value& v) {
    std::string out;
    bool indent = false;
    for (const char ch : json::dump(v)) {
        if (ch == '\n') {
            indent = true;
        } else if (!indent || ch != ' ') {
            indent = false;
            out += ch;
        }
    }
    return out;
}

/// Peak thread count of the solver phase: ranks x threads, plus one
/// executor per simulated device, plus one progress thread per tcp rank,
/// plus the calling thread; and the threads that can be busy at once
/// (progress threads and a caller blocked in the launch excluded).
std::pair<int, int> thread_budget(const Workload& s) {
    int peak = 0, busy = 0;
    for (const auto& id : impl_ids()) {
        const auto& e = impl::find_implementation(id);
        const int ranks = ranks_for(id, s.cfg.ntasks);
        const int devices = e.uses_gpu ? ranks : 0;
        for (const auto tr : s.transports) {
            const int progress = tr == impl::TransportKind::Tcp && e.uses_mpi ? ranks : 0;
            busy = std::max(busy, ranks * s.cfg.threads_per_task + devices);
            peak = std::max(peak, ranks * s.cfg.threads_per_task + devices + progress + 1);
        }
    }
    return {peak, busy};
}

int run(const Args& args) {
    const Workload w = make_workload(args.workload);
    // FNV-1a of the workload name, mixed with the seed.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char ch : w.name) h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
    // Each part of the run (0: the solver phase, 1 + k: service slice k)
    // draws from its own stream, seeded from the workload, the seed and the
    // part alone: how many draws one part makes (the solver's repetitions
    // depend on host speed) moves no other part's inputs.
    const auto stream = [base = h ^ args.seed](std::uint64_t part) {
        return Rng(Rng(base + part).next());
    };
    CallLog log;
    Tally tally;
    Metrics m;
    const double secs = args.seconds;
    const auto& cfg = w.cfg;

    // Host facts and the workload's working set, as metadata.
    {
        const HostFacts h = host_facts();
        const auto d = core::make_decomposition(cfg.problem.domain.extents(), cfg.ntasks);
        const auto e = d.local_extents(0);
        const double field = 8.0 * (e.nx + 2) * (e.ny + 2) * (e.nz + 2);
        const auto [peak, busy] = thread_budget(w);
        json::Value box = json::Value::array();
        for (const int n : {e.nx, e.ny, e.nz}) box.items.push_back(json::Value::number(n));
        json::Value meta = json::Value::object();
        meta.set("workload", json::Value::string(w.name));
        meta.set("nproc", json::Value::number(std::thread::hardware_concurrency()));
        meta.set("cpu", json::Value::string(h.cpu));
        meta.set("l2_mib", json::Value::number(h.l2_mib));
        meta.set("l3_mib", json::Value::number(h.l3_mib));
        meta.set("compiler", json::Value::string(PERFBENCH_COMPILER));
        meta.set("build_type", json::Value::string(PERFBENCH_BUILD_TYPE));
        meta.set("rank_box", std::move(box));
        meta.set("rank_field_bytes", json::Value::number(2.0 * field));
        meta.set("peak_threads", json::Value::number(peak));
        meta.set("busy_threads", json::Value::number(busy));
        std::printf("meta %s\n", one_line(meta).c_str());
        std::fflush(stdout);
    }

    if (args.trace) {
        // Probes first: they fork rank processes, which needs a process
        // with no other threads alive.
        Geometry g{cfg, core::make_decomposition(cfg.problem.domain.extents(), cfg.ntasks)};
        run_probes(g, log, tally, m);
        const int terms = live_terms(cfg.problem);
        m["core.terms"] = {double(terms), "count"};
        m["core.flops_per_pt"] = {double(2 * terms - 1), "count"};
        m["msg.kib_per_step"] = {exchange_bytes(g.decomp) / 1024.0, "KiB"};
    }

    // The two phases alternate in kSlices slices, so each metric averages
    // the host's state over the whole run rather than over one part of it.
    // (The daemon's thread is joined at the end of every service slice: the
    // mesh transports fork rank processes, which needs a quiescent process.)
    SolverPhase solver(w, args.trace, stream(0), log, tally);
    ServiceOutcome svc;
    const double slice = secs / kSlices;
    for (int k = 0; k < kSlices; ++k) {
        solver.run_for(kSolverShare * slice);
        ServiceParams sp;
        sp.open_s = 0.7 * (1.0 - kSolverShare) * slice;
        sp.sat_s = 0.3 * (1.0 - kSolverShare) * slice;
        sp.socket_path = args.socket;
        Rng rng = stream(1 + static_cast<std::uint64_t>(k));
        svc.merge(run_service(sp, rng, log, tally));
    }
    const auto& cells = solver.samples();
    std::fprintf(stderr, "perfbench: %zu cells, %d repetitions; %zu open-loop jobs\n",
                 solver.cells(), solver.repetitions(), svc.latency_s.size());
    for (const auto& [id, c] : cells)
        std::fprintf(stderr,
                     "perfbench: %-18s %3zu solves, loop median %.4f s, p75 %.4f s "
                     "(%.4f .. %.4f), setup median %.4f s\n",
                     id.c_str(), c.loop_s.size(), median(c.loop_s), quantile(c.loop_s, 0.75),
                     quantile(c.loop_s, 0.0), quantile(c.loop_s, 1.0), median(c.setup_s));

    if (!args.trace) {
        const double pts = double(cfg.problem.domain.extents().volume()) * cfg.steps;
        std::vector<double> setup;
        for (const auto& id : impl_ids()) {
            std::vector<double> rate;
            if (const auto it = cells.find(id); it != cells.end()) {
                for (const double s : it->second.loop_s) rate.push_back(pts / s / 1e6);
                setup.insert(setup.end(), it->second.setup_s.begin(),
                             it->second.setup_s.end());
            }
            // A shared host's cores flip between a fast and a slow state
            // every few seconds. A one-rank solve runs on one core, so its
            // rates are bimodal and the share of fast solves drifts from run
            // to run; the median jumps between the modes, while the first
            // quartile (the rate three solves in four reach) stays in the
            // slow one unless three solves in four ran fast. A
            // solve of several ranks in lock step nearly always waits on some
            // slow core, so its rates have one mode and the median is steady.
            const bool one_rank = ranks_for(id, cfg.ntasks) == 1;
            m["mlups." + id] = {quantile(rate, one_rank ? kOneRankQuantile : 0.5),
                                "Mpts/s"};
        }
        m["setup_s"] = {median(setup), "s"};
        m["job_p50_s"] = {quantile(svc.latency_s, 0.5), "s"};
        m["jobs_per_s"] = {svc.sat_jobs / svc.sat_seconds, "1/s"};
    } else {
        add_layer_metrics(cells, m);
        // Counter oracle: one impl's message count is the same in every
        // traced solve, over socket and tcp alike.
        std::vector<double> overhead;
        for (const auto& [id, s] : cells) {
            std::set<long> sends;
            for (const auto& l : s.layers) sends.insert(l.sends);
            if (sends.size() > 1)
                tally.fail(id + ": isend counts differ between traced solves");
            if (!s.loop_s.empty() && !s.traced_loop_s.empty())
                overhead.push_back(median(s.traced_loop_s) / median(s.loop_s) - 1.0);
        }
        m["trace.overhead"] = {median(overhead), "ratio"};
        m["service.job_p99_s"] = {quantile(svc.latency_s, 0.99), "s"};
        m["service.queue_wait_p50_s"] = {quantile(svc.queue_wait_s, 0.5), "s"};
        m["service.queue_wait_p99_s"] = {quantile(svc.queue_wait_s, 0.99), "s"};
        m["service.run_s"] = {median(svc.run_s), "s"};
        m["service.dispatch_s"] = {median(svc.dispatch_s), "s"};
        m["service.batch_jobs"] = {svc.sat_jobs / svc.sat_batches, "count"};
        m["service.cost_ratio"] = {median(svc.cost_ratio), "ratio"};
        m["model.price_us"] = {median(svc.price_us), "us"};
        m["load.late_p99_s"] = {quantile(svc.late_s, 0.99), "s"};
        // The benchmark's own spans, one per library call it made, as a
        // Chrome trace.
        if (!args.trace_out.empty())
            if (std::FILE* f = std::fopen(args.trace_out.c_str(), "w")) {
                std::fputs(advect::trace::to_chrome_json(log.spans()).c_str(), f);
                std::fclose(f);
            }
    }

    for (const auto& e : tally.errors) std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
    json::Value metrics = json::Value::object();
    for (const auto& [name, metric] : m) {
        json::Value v = json::Value::object();
        v.set("value", json::Value::number(metric.value));
        v.set("unit", json::Value::string(metric.unit));
        metrics.set(name, std::move(v));
    }
    json::Value result = json::Value::object();
    result.set("correct", json::Value::boolean(tally.failed == 0));
    result.set("attempted", json::Value::number(static_cast<double>(tally.attempted)));
    result.set("failed", json::Value::number(static_cast<double>(tally.failed)));
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", one_line(result).c_str());
    std::fflush(stdout);
    return tally.failed == 0 ? 0 : 1;
}

Args parse(int argc, char** argv) {
    Args a;
    a.socket = "perfbench-" + std::to_string(::getpid()) + ".sock";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") { a.seed = std::stoull(v); have_seed = true; }
        else if (k == "--seconds") { a.seconds = std::stod(v); have_seconds = true; }
        else if (k == "--trace") { a.trace = v == "1"; have_trace = v == "0" || v == "1"; }
        else if (k == "--socket") a.socket = v;
        else if (k == "--trace-out") a.trace_out = v;
        else throw std::invalid_argument("unknown option " + k);
    }
    if (a.workload.empty() || !have_seed || !have_seconds || !have_trace || a.seconds <= 0)
        throw std::invalid_argument(
            "usage: perfbench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> [--socket <path>] [--trace-out <path>]");
    return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Args args;
    try {
        args = perfbench::parse(argc, argv);
        (void)perfbench::make_workload(args.workload);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    try {
        return perfbench::run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
        return 1;
    }
}
