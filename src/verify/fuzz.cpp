#include "verify/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "chaos/scenario.hpp"
#include "core/decomposition.hpp"
#include "core/initial.hpp"
#include "core/problem.hpp"
#include "impl/harness.hpp"
#include "impl/launch.hpp"
#include "impl/registry.hpp"
#include "plan/ir.hpp"

namespace advect::verify {
namespace {

/// splitmix64: the same tiny deterministic generator the schedule shuffle
/// uses, so corpus seeds expand identically on every platform.
struct Rng {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /// Uniform int in [lo, hi].
    int range(int lo, int hi) {
        return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                                  hi - lo + 1));
    }
    /// Uniform double in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

bool is_box_impl(const std::string& id) {
    return id == "cpu_gpu_bulk" || id == "cpu_gpu_overlap";
}

/// Smallest local extent of the case's decomposition: the box
/// implementations need every local extent to hold a box of the configured
/// thickness around a non-empty block.
int min_local_extent(const FuzzCase& c) {
    const auto decomp = core::make_decomposition(
        core::Extents3{c.n, c.n, c.n}, c.ntasks);
    int m = c.n;
    for (int r = 0; r < decomp.nranks(); ++r) {
        const auto e = decomp.local_extents(r);
        m = std::min({m, e.nx, e.ny, e.nz});
    }
    return m;
}

impl::SolverConfig base_config(const FuzzCase& c) {
    impl::SolverConfig cfg;
    cfg.problem.domain.n = c.n;
    cfg.problem.velocity = c.velocity;
    cfg.problem.scenario.velocity = c.vel_kind;
    cfg.problem.scenario.amplitude = c.vel_amplitude;
    switch (c.boundary) {
        case FuzzBoundary::Periodic:
            break;
        case FuzzBoundary::InflowX:
            cfg.problem.scenario.faces[core::kFaceXLo] =
                core::BoundaryKind::Inflow;
            cfg.problem.scenario.faces[core::kFaceXHi] =
                core::BoundaryKind::Inflow;
            break;
        case FuzzBoundary::OpenBox:
            for (auto& f : cfg.problem.scenario.faces)
                f = core::BoundaryKind::Inflow;
            break;
        case FuzzBoundary::OutflowX:
            cfg.problem.scenario.faces[core::kFaceXLo] =
                core::BoundaryKind::Inflow;
            cfg.problem.scenario.faces[core::kFaceXHi] =
                core::BoundaryKind::Outflow;
            break;
    }
    // Same stability budget in both regimes: nu * max|c| = nu_fraction,
    // with max|c| over the whole variable field. The constant branch keeps
    // the historical expression so pre-scenario corpus seeds expand to
    // bitwise-identical problems.
    cfg.problem.nu =
        cfg.problem.constant_coefficients()
            ? c.nu_fraction * core::max_stable_nu(c.velocity)
            : c.nu_fraction / cfg.problem.velocity_field().max_abs();
    if (c.mms) {
        cfg.problem.source.amp = 1.0;
        cfg.problem.source.kx = 1;
        cfg.problem.source.ky = 2;
        cfg.problem.source.kz = 1;
    }
    cfg.steps = c.steps;
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = c.threads;
    cfg.block_x = c.block_x;
    cfg.block_y = c.block_y;
    cfg.box_thickness = c.box_thickness;
    cfg.fuse = c.fuse;
    cfg.tasks_per_gpu = c.tasks_per_gpu;
    cfg.schedule_seed = c.schedule_seed;
    return cfg;
}

double interior_sum(const core::Field3& f) {
    const auto n = f.extents();
    double s = 0.0;
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) s += f(i, j, k);
    return s;
}

void interior_min_max(const core::Field3& f, double& lo, double& hi) {
    const auto n = f.extents();
    lo = hi = f(0, 0, 0);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) {
                lo = std::min(lo, f(i, j, k));
                hi = std::max(hi, f(i, j, k));
            }
}

}  // namespace

FuzzCase sample_case(std::uint64_t seed) {
    // Avalanche the raw seed into the generator state: without this,
    // adjacent seeds' splitmix streams are the same stream offset by one
    // draw, and neighbouring corpus entries would share most fields.
    Rng rng{Rng{seed}.next()};
    FuzzCase c;
    c.seed = seed;
    c.n = rng.range(10, 18);
    c.steps = rng.range(2, 6);
    c.ntasks = rng.range(1, 6);
    c.threads = rng.range(1, 3);
    c.block_x = 1 << rng.range(1, 3);
    c.block_y = 1 << rng.range(1, 2);
    c.box_thickness = rng.range(1, 2);
    c.fuse = rng.range(1, 4);
    // The hybrid implementations need box >= fuse; deepen the box half the
    // time so they are fuzzed at deep fuse too (the other half leaves them
    // infeasible on purpose, exercising the skip path).
    if (c.fuse > c.box_thickness && rng.range(0, 1) != 0)
        c.box_thickness = c.fuse;
    c.tasks_per_gpu = rng.range(1, std::min(c.ntasks, 2));

    c.courant_one = rng.range(0, 3) == 0;
    if (c.courant_one) {
        // Exact-shift regime: |c_i| * nu = 1 in every dimension makes the
        // 27 coefficients a pure shift (all non-negative), activating the
        // discrete-max-principle oracle.
        c.velocity = {rng.range(0, 1) != 0 ? 1.0 : -1.0,
                      rng.range(0, 1) != 0 ? 1.0 : -1.0,
                      rng.range(0, 1) != 0 ? 1.0 : -1.0};
        c.nu_fraction = 1.0;
        c.mms = false;
    } else {
        core::Velocity3 v{-1.5 + 3.0 * rng.unit(), -1.5 + 3.0 * rng.unit(),
                          -1.5 + 3.0 * rng.unit()};
        if (v.max_abs() < 0.1) v.cx = 1.0;  // avoid degenerate zero flow
        c.velocity = v;
        c.nu_fraction = 0.3 + 0.7 * rng.unit();
        c.mms = rng.range(0, 1) != 0;
    }

    c.socket = c.tasks_per_gpu == 1 && rng.range(0, 2) == 0;

    if (rng.range(0, 1) != 0) {
        static const char* const kScenarios[] = {
            "nic-jitter", "message-drops", "gpu-slow", "gpu-flaky",
            "straggler"};
        c.chaos_scenario = kScenarios[rng.range(0, 4)];
        const bool probabilistic = c.chaos_scenario == "message-drops" ||
                                   c.chaos_scenario == "gpu-flaky";
        c.chaos_x = probabilistic ? 0.05 + 0.20 * rng.unit()
                                  : 20.0 + 60.0 * rng.unit();
        c.chaos_seed = rng.next();
    }

    if (rng.range(0, 1) != 0) {
        c.schedule_seed = static_cast<unsigned>(rng.next() >> 32);
        if (c.schedule_seed == 0) c.schedule_seed = 1;
    }

    // Scenario leg (docs/SCENARIOS.md): a quarter of the non-Courant-1
    // cases leave the periodic constant-velocity default, drawing a
    // velocity-field kind and a boundary policy independently (composing
    // them exercises variable coefficients *through* boundary fills).
    // Courant-1 cases stay on the default so the max-principle oracle keeps
    // its exact-shift premise.
    if (!c.courant_one && rng.range(0, 3) == 0) {
        switch (rng.range(0, 2)) {
            case 0:
                break;  // constant velocity, open boundaries only
            case 1:
                c.vel_kind = core::VelocityKind::SolidBodyRotation;
                c.vel_amplitude = 0.5 + 1.5 * rng.unit();
                break;
            case 2:
                c.vel_kind = core::VelocityKind::Deformational;
                c.vel_amplitude = 0.2 + 0.3 * rng.unit();
                break;
        }
        switch (rng.range(0, 3)) {
            case 0: c.boundary = FuzzBoundary::Periodic; break;
            case 1: c.boundary = FuzzBoundary::InflowX; break;
            case 2: c.boundary = FuzzBoundary::OpenBox; break;
            case 3: c.boundary = FuzzBoundary::OutflowX; break;
        }
        // Guarantee the leg is never a no-op draw.
        if (c.vel_kind == core::VelocityKind::Constant &&
            c.boundary == FuzzBoundary::Periodic)
            c.boundary = FuzzBoundary::InflowX;
    }
    // Only the single-term register chain fuses (impl::plan_job), so every
    // non-Courant-1 case — dense coefficients, a source, open faces,
    // variable coefficients — runs at fuse 1. The clamp adds no draw, so
    // each seed expands to the same case as before apart from its fuse.
    if (!c.courant_one) c.fuse = 1;

    // Stage-2 tcp leg and the progress mode of both forked legs
    // (docs/TRANSPORT.md): drawn from an independently seeded generator
    // appended after every historical draw, so each committed corpus seed
    // still expands to the bitwise-identical case.
    Rng tcp_rng{Rng{seed ^ 0x7c7c7c7cc7c7c7c7ull}.next()};
    c.tcp = c.tasks_per_gpu == 1 && tcp_rng.range(0, 2) == 0;
    c.polled = tcp_rng.range(0, 1) != 0;
    return c;
}

std::string reproducer(const FuzzCase& c) {
    return "advectctl verify fuzz --seed " + std::to_string(c.seed);
}

namespace {

const char* boundary_name(FuzzBoundary b) {
    switch (b) {
        case FuzzBoundary::Periodic: return "periodic";
        case FuzzBoundary::InflowX: return "inflow-x";
        case FuzzBoundary::OpenBox: return "open-box";
        case FuzzBoundary::OutflowX: return "outflow-x";
    }
    return "?";
}

}  // namespace

std::string describe(const FuzzCase& c) {
    char scen[96] = "";
    if (c.vel_kind != core::VelocityKind::Constant)
        std::snprintf(scen, sizeof scen, " vel=%s(%.2f)",
                      core::to_string(c.vel_kind), c.vel_amplitude);
    char buf[448];
    std::snprintf(
        buf, sizeof buf,
        "seed=%llu n=%d steps=%d ntasks=%d threads=%d block=%dx%d box=%d "
        "fuse=%d tpg=%d c=(%.3f,%.3f,%.3f) nu=%.2f%s%s%s%s%s%s%s sched=%u",
        static_cast<unsigned long long>(c.seed), c.n, c.steps, c.ntasks,
        c.threads, c.block_x, c.block_y, c.box_thickness, c.fuse,
        c.tasks_per_gpu, c.velocity.cx, c.velocity.cy, c.velocity.cz,
        c.nu_fraction, c.courant_one ? " courant1" : "", c.mms ? " mms" : "",
        scen,
        c.boundary == FuzzBoundary::Periodic
            ? ""
            : (std::string(" bc=") + boundary_name(c.boundary)).c_str(),
        c.socket ? (c.polled ? " socket-polled" : " socket") : "",
        c.tcp ? (c.polled ? " tcp-polled" : " tcp") : "",
        c.chaos_scenario.empty() ? ""
                                 : (" chaos=" + c.chaos_scenario).c_str(),
        c.schedule_seed);
    return buf;
}

FuzzOutcome run_case(const FuzzCase& c) {
    FuzzOutcome out;
    out.fuzz_case = c;
    const impl::SolverConfig base = base_config(c);
    const bool open = !base.problem.scenario.periodic();
    const auto reference = core::run_reference(base.problem, base.steps);
    const int min_extent = min_local_extent(c);

    auto fail = [&out](const std::string& what) {
        out.failures.push_back(what);
    };

    // Oracle 1: all nine implementations bitwise-equal to the reference.
    for (const auto& im : impl::registry()) {
        if (is_box_impl(im.id) && min_extent < 2 * c.box_thickness + 1) {
            ++out.skipped;
            continue;
        }
        try {
            const auto r = impl::run_plan_solver(im.id, base);
            ++out.checks;
            if (!r.state.interior_equals(reference))
                fail(im.id + ": state diverges from reference");
        } catch (const plan::FuseGeometryError&) {
            ++out.skipped;  // fuse too deep for this rank geometry
        }
    }

    // Oracle 2: conservation of the periodic integral. The coefficients sum
    // to exactly 1, so the total can drift only by roundoff. Source runs
    // inject integral by design; open boundaries exchange flux with the
    // exterior; variable coefficients conserve only in the column-sum
    // sense, not cell-wise. All three are exempt.
    if (!c.mms && !open && base.problem.constant_coefficients()) {
        core::Field3 initial(base.problem.domain.extents());
        core::fill_initial(initial, base.problem.domain, base.problem.wave);
        const double s0 = interior_sum(initial);
        const double st = interior_sum(reference);
        const double tol = 5e-14 * static_cast<double>(
                                       base.problem.domain.volume()) *
                           static_cast<double>(c.steps);
        ++out.checks;
        if (std::abs(st - s0) > tol) {
            char b[128];
            std::snprintf(b, sizeof b,
                          "conservation: |sum drift| %.3e > tol %.3e",
                          std::abs(st - s0), tol);
            fail(b);
        }

        // Oracle 3: discrete maximum principle, valid exactly when all 27
        // coefficients are non-negative (a convex combination). For
        // Lax-Wendroff that is the Courant-1 shift regime; intermediate
        // Courant numbers legitimately over/undershoot.
        const auto coeffs = base.problem.coeffs();
        const bool monotone =
            std::all_of(coeffs.a.begin(), coeffs.a.end(),
                        [](double a) { return a >= 0.0; });
        if (monotone) {
            double lo0 = 0.0, hi0 = 0.0, lot = 0.0, hit = 0.0;
            interior_min_max(initial, lo0, hi0);
            interior_min_max(reference, lot, hit);
            ++out.checks;
            if (lot < lo0 - 1e-12 || hit > hi0 + 1e-12) {
                char b[160];
                std::snprintf(b, sizeof b,
                              "max principle: range [%.6e, %.6e] escapes "
                              "initial [%.6e, %.6e]",
                              lot, hit, lo0, hi0);
                fail(b);
            }
        }
    }

    // Pick deterministic implementations for the transport/chaos legs.
    Rng pick{c.seed ^ 0xa5a5a5a55a5a5a5aull};
    const msg::ProgressMode progress =
        c.polled ? msg::ProgressMode::Polled : msg::ProgressMode::Thread;
    static const char* const kCommImpls[] = {"mpi_bulk", "mpi_nonblocking",
                                             "mpi_thread_overlap"};
    static const char* const kGpuImpls[] = {"gpu_mpi_bulk",
                                            "gpu_mpi_streams"};

    // Oracle 4: the socket transport (forked worker processes) reproduces
    // the in-process state bitwise, in the drawn progress mode.
    if (c.socket) {
        const std::string id = kCommImpls[pick.range(0, 2)];
        impl::LaunchOptions opts;
        opts.transport = impl::TransportKind::Socket;
        opts.progress = progress;
        try {
            const auto rep = impl::launch_solver(id, base, opts);
            ++out.checks;
            if (!rep.result.state.interior_equals(reference))
                fail(id + " over socket transport (" +
                     msg::progress_mode_name(progress) +
                     " progress) diverges from reference");
        } catch (const plan::FuseGeometryError&) {
            ++out.skipped;
        }
    }

    // Oracle 5: the tcp transport (rendezvous'd mesh) reproduces the
    // in-process state bitwise — in the drawn progress mode, so the polled
    // no-async-progress state machine is fuzzed on both meshes. Its
    // implementation pick has its own generator so the historical legs'
    // draws stay untouched.
    if (c.tcp) {
        Rng tcp_pick{c.seed ^ 0x3c3c3c3cc3c3c3c3ull};
        const std::string id = kCommImpls[tcp_pick.range(0, 2)];
        impl::LaunchOptions opts;
        opts.transport = impl::TransportKind::Tcp;
        opts.progress = progress;
        try {
            const auto rep = impl::launch_solver(id, base, opts);
            ++out.checks;
            if (!rep.result.state.interior_equals(reference))
                fail(id + " over tcp transport (" +
                     msg::progress_mode_name(progress) +
                     " progress) diverges from reference");
        } catch (const plan::FuseGeometryError&) {
            ++out.skipped;
        }
    }

    // Oracle 6: chaos recovery. Dropped messages are retransmitted, flaky
    // kernels retried, jitter and stragglers only reorder time — the
    // recovered state must equal the fault-free state bitwise.
    if (!c.chaos_scenario.empty()) {
        const bool gpu_fault = c.chaos_scenario == "gpu-slow" ||
                               c.chaos_scenario == "gpu-flaky";
        const std::string id = gpu_fault ? kGpuImpls[pick.range(0, 1)]
                                         : kCommImpls[pick.range(0, 2)];
        const auto plan =
            chaos::scenario_by_name(c.chaos_scenario, c.chaos_x, c.chaos_seed);
        impl::LaunchOptions opts;
        opts.fault_plan = &plan;
        opts.progress = progress;
        if (c.socket && !gpu_fault)
            opts.transport = impl::TransportKind::Socket;
        try {
            const auto rep = impl::launch_solver(id, base, opts);
            ++out.checks;
            if (!rep.result.state.interior_equals(reference))
                fail(id + " under " + c.chaos_scenario +
                     " does not recover to the fault-free state");
        } catch (const plan::FuseGeometryError&) {
            ++out.skipped;
        }
    }

    return out;
}

FuzzSummary run_campaign(std::uint64_t first, int count, bool log) {
    FuzzSummary sum;
    for (int i = 0; i < count; ++i) {
        const FuzzCase c = sample_case(first + static_cast<unsigned>(i));
        const FuzzOutcome out = run_case(c);
        ++sum.cases;
        sum.checks += out.checks;
        sum.skipped += out.skipped;
        if (log)
            std::printf("[%s] %s (%d checks, %d skipped)\n",
                        out.ok() ? "ok" : "FAIL", describe(c).c_str(),
                        out.checks, out.skipped);
        if (!out.ok()) {
            for (const std::string& f : out.failures)
                std::printf("  failure: %s\n", f.c_str());
            std::printf("  reproduce: %s\n", reproducer(c).c_str());
            std::fflush(stdout);
            sum.failures.push_back(out);
        }
    }
    if (log)
        std::printf("fuzz: %d cases, %d checks, %d skipped, %zu failing\n",
                    sum.cases, sum.checks, sum.skipped, sum.failures.size());
    return sum;
}

}  // namespace advect::verify
