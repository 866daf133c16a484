#include "probes.hpp"

#include <cstring>
#include <exception>
#include <functional>

#include "core/coeff_cache.hpp"
#include "core/rows.hpp"
#include "core/stencil.hpp"
#include "gpu/device.hpp"
#include "impl/device_field.hpp"
#include "impl/exchange.hpp"
#include "msg/comm.hpp"
#include "msg/transport/process.hpp"
#include "omp/parallel_for.hpp"
#include "plan/builders.hpp"

namespace perfbench {

namespace core = advect::core;
namespace impl = advect::impl;
namespace msg = advect::msg;

namespace {

/// Median seconds per call of `fn`, over `calls` individually timed calls
/// after two untimed warm-up calls.
double per_call(int calls, const std::function<void()>& fn) {
    fn();
    fn();
    std::vector<double> t;
    t.reserve(static_cast<std::size_t>(calls));
    for (int i = 0; i < calls; ++i) {
        const double t0 = now_s();
        fn();
        t.push_back(now_s() - t0);
    }
    return median(std::move(t));
}

/// Calls whose duration is a few microseconds are timed in batches of
/// `batch`, so the clock read does not dominate.
double per_call_batched(int calls, int batch, const std::function<void()>& fn) {
    return per_call(calls, [&] {
               for (int i = 0; i < batch; ++i) fn();
           }) /
           batch;
}

/// A field with a deterministic, non-trivial fill (the Gaussian wave of
/// the problem, at the rank-0 origin), halos included.
core::Field3 filled(const impl::SolverConfig& cfg, core::Extents3 n) {
    core::Field3 f(n);
    core::fill_initial(f, cfg.problem.domain, cfg.problem.wave);
    core::fill_periodic_halo(f);
    return f;
}

/// Mean microseconds of one HaloExchange::exchange_all on rank 0.
double exchange_seconds(const core::Decomp3& decomp, msg::Communicator& comm,
                        int iters) {
    core::Field3 f(decomp.local_extents(comm.rank()), 1.0);
    impl::HaloExchange ex(decomp, comm.rank());
    for (int i = 0; i < 3; ++i) ex.exchange_all(comm, f);
    comm.barrier();
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) ex.exchange_all(comm, f);
    return (now_s() - t0) / iters;
}

std::vector<std::uint8_t> to_bytes(double v) {
    std::vector<std::uint8_t> b(sizeof v);
    std::memcpy(b.data(), &v, sizeof v);
    return b;
}

}  // namespace

void run_probes(const Geometry& g, CallLog& log, Tally& tally, Metrics& out) {
    const auto& p = g.cfg.problem;
    const core::Extents3 box = g.decomp.local_extents(0);
    const core::Range3 all{{0, 0, 0}, {box.nx, box.ny, box.nz}};
    const double pts = static_cast<double>(box.volume());
    const auto probe = [&](const char* name, const std::function<void()>& fn) {
        ++tally.attempted;
        try {
            log.time(name, fn);
        } catch (const std::exception& e) {
            tally.fail(std::string(name) + ": " + e.what());
        }
    };

    probe("probe:kernel", [&] {
        const core::Field3 in = filled(g.cfg, box);
        core::Field3 o(box);
        const core::RowSpace rows({all});
        double s = 0.0;
        if (p.constant_coefficients()) {
            const auto coeffs = p.coeffs();
            s = per_call(15, [&] {
                core::apply_stencil_rows(coeffs, in, o, rows, 0, rows.size());
            });
            core::Field3 ref(box);
            core::apply_stencil(coeffs, in, ref);
            if (!o.interior_equals(ref))
                tally.fail("probe:kernel: apply_stencil_rows differs from apply_stencil");
        } else {
            const core::CoeffCache cache(p.coeff_field(), box, {0, 0, 0});
            s = per_call(15, [&] {
                core::apply_stencil_var_rows(cache, in, o, rows, 0, rows.size());
            });
        }
        out["core.kernel_mpts"] = {pts / s / 1e6, "Mpts/s"};
    });

    probe("probe:copy", [&] {
        const core::Field3 src = filled(g.cfg, box);
        core::Field3 dst(box);
        const core::RowSpace rows({all});
        const double s = per_call(31, [&] {
            core::copy_rows(src, dst, rows, 0, rows.size());
        });
        if (!dst.interior_equals(src)) tally.fail("probe:copy: copy_rows lost data");
        // Computed bytes: one read and one write of 8 bytes per point.
        out["core.copy_gbs"] = {16.0 * pts / s / 1e9, "GB/s"};
    });

    const int nranks = g.decomp.nranks();
    const int iters = 100;
    probe("probe:exchange:inproc", [&] {
        double s = 0.0;
        msg::run_ranks(nranks, [&](msg::Communicator& comm) {
            const double t = exchange_seconds(g.decomp, comm, iters);
            if (comm.rank() == 0) s = t;
        });
        out["msg.exchange_us.inproc"] = {s * 1e6, "us"};
    });
    const auto forked = [&](const char* metric, bool tcp) {
        const auto body = [&](msg::Communicator& comm) {
            return to_bytes(exchange_seconds(g.decomp, comm, iters));
        };
        const auto payloads =
            tcp ? msg::run_tcp_ranks(nranks, msg::ProgressMode::Thread, body)
                : msg::run_process_ranks(nranks, body);
        double s = 0.0;
        std::memcpy(&s, payloads.front().data(), sizeof s);
        out[metric] = {s * 1e6, "us"};
    };
    probe("probe:exchange:socket", [&] { forked("msg.exchange_us.socket", false); });
    probe("probe:exchange:tcp", [&] { forked("msg.exchange_us.tcp", true); });

    probe("probe:gpu_launch", [&] {
        advect::gpu::Device dev(g.cfg.gpu_props);
        impl::upload_coefficients(dev, p.coeffs());
        auto stream = dev.create_stream();
        impl::DeviceField in(dev, box), o(dev, box);
        const core::Field3 host = filled(g.cfg, box);
        stream.memcpy_h2d(in.buffer(), 0, host.raw());
        stream.synchronize();
        const double s = per_call(9, [&] {
            impl::launch_stencil(stream, dev, in, o, all, g.cfg.block_x,
                                 g.cfg.block_y);
            stream.synchronize();
        });
        out["gpu.launch_us"] = {s * 1e6, "us"};
    });

    probe("probe:parallel_for", [&] {
        advect::omp::ThreadTeam team(4);
        const double s = per_call_batched(21, 50, [&] {
            advect::omp::parallel_for(team, 0, 1024, advect::omp::Schedule::Guided,
                                      [](std::int64_t, std::int64_t) {});
        });
        out["omp.parallel_for_us"] = {s * 1e6, "us"};
    });

    probe("probe:plan_build", [&] {
        const bool var = !p.constant_coefficients();
        const double s = per_call(11, [&] {
            for (const auto& id : impl_ids()) {
                const auto d = core::make_decomposition(
                    p.domain.extents(), ranks_for(id, nranks));
                for (int r = 0; r < d.nranks(); ++r)
                    (void)advect::plan::build_step_plan(
                        id, {d.local_extents(r), g.cfg.box_thickness, g.cfg.fuse,
                             core::local_open_faces(p.scenario, d, r), var});
            }
        });
        out["plan.build_ms"] = {s * 1e3, "ms"};
    });
}

}  // namespace perfbench
