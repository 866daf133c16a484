// Real-execution microbenchmarks (google-benchmark) of the substrate on
// the host machine: stencil sweep throughput, halo pack/unpack, the
// message runtime's exchange, the thread-team scheduling overheads, and
// the simulated device's kernel path. These measure *this host*, not the
// paper's machines — the figure benches use the calibrated models for
// those — and exist to track regressions in the functional layer.

#include <benchmark/benchmark.h>

#include "core/coeff_cache.hpp"
#include "core/halo.hpp"
#include "core/problem.hpp"
#include "core/rows.hpp"
#include "core/stencil.hpp"
#include "impl/cpu_kernels.hpp"
#include "impl/device_field.hpp"
#include "impl/exchange.hpp"
#include "omp/parallel_for.hpp"

namespace core = advect::core;
namespace omp = advect::omp;
namespace msg = advect::msg;
namespace gpu = advect::gpu;
namespace impl = advect::impl;

namespace {

/// One whole-interior sweep of an n^3 field per iteration.
void stencil_sweep(benchmark::State& state, const core::StencilCoeffs& a) {
    const int n = static_cast<int>(state.range(0));
    core::Field3 cur({n, n, n}, 1.0);
    core::Field3 nxt({n, n, n});
    core::fill_periodic_halo(cur);
    for (auto _ : state) {
        core::apply_stencil(a, cur, nxt);
        benchmark::DoNotOptimize(nxt.raw().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * n * n);
    state.counters["GF"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * n * n * n *
            core::kFlopsPerPoint,
        benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

/// Courant-1 coefficients: compaction leaves a single live term.
void BM_StencilSweep(benchmark::State& state) {
    stencil_sweep(state, core::tensor_product_coeffs({1, 1, 1}, 1.0));
}
BENCHMARK(BM_StencilSweep)->Arg(24)->Arg(48)->Arg(64);

/// Temporal blocking (docs/PERF.md): one iteration advances `fuse` time
/// steps over the interior's rows through the Courant-1 register chain from
/// a fuse-deep halo, so items/s counts n^3 * fuse point-updates per
/// iteration. The gate compares the best fused factor against
/// BM_StencilSweep at the same n.
void BM_StencilSweepFused(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const int fuse = static_cast<int>(state.range(1));
    core::Field3 cur({n, n, n}, fuse, 1.0);
    core::Field3 nxt({n, n, n}, fuse);
    const auto a = core::tensor_product_coeffs({1, 1, 1}, 1.0);
    const core::RowSpace rows({cur.interior()});
    core::fill_periodic_halo(cur);
    for (auto _ : state) {
        core::apply_stencil_chain_rows(a, cur, nxt, rows, 0, rows.size(),
                                       fuse);
        benchmark::DoNotOptimize(nxt.raw().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * n * n * fuse);
    state.counters["GF"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * n * n * n * fuse *
            core::kFlopsPerPoint,
        benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_StencilSweepFused)
    ->Args({24, 2})
    ->Args({24, 3})
    ->Args({24, 4})
    ->Args({48, 2})
    ->Args({48, 3})
    ->Args({48, 4})
    ->Args({64, 2})
    ->Args({64, 3})
    ->Args({64, 4});

/// The paper's dense Lax-Wendroff sweep (c = (1, 0.5, 0.25), nu = 0.4):
/// all 27 coefficients are nonzero, so the row kernel runs every term. This
/// is the series that times the real arithmetic, and the one
/// BM_StencilSweepVar is graded against.
void BM_StencilSweepDense(benchmark::State& state) {
    stencil_sweep(state, core::tensor_product_coeffs({1.0, 0.5, 0.25}, 0.4));
}
BENCHMARK(BM_StencilSweepDense)->Arg(24)->Arg(48)->Arg(64);

/// Variable-coefficient sweep (docs/SCENARIOS.md): per-cell coefficients
/// from the compacted struct-of-arrays CoeffCache (solid-body rotation
/// dedups to ny rows) through the vector row kernel. Tracks the cost ratio
/// against the dense constant-table BM_StencilSweepDense at the same n.
void BM_StencilSweepVar(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    core::Field3 cur({n, n, n}, 1.0);
    core::Field3 nxt({n, n, n});
    core::CoeffField cf;
    cf.vel = {core::VelocityKind::SolidBodyRotation, {1.0, 1.0, 1.0}, 2.0};
    cf.nu = 0.5 / cf.vel.max_abs();
    cf.delta = 1.0 / n;
    const core::CoeffCache cache(cf, {n, n, n}, {0, 0, 0});
    core::fill_periodic_halo(cur);
    const core::RowSpace rows({cur.interior()});
    for (auto _ : state) {
        core::apply_stencil_var_rows(cache, cur, nxt, rows, 0, rows.size());
        benchmark::DoNotOptimize(nxt.raw().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * n * n);
    state.counters["GF"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * n * n * n *
            core::kFlopsPerPoint,
        benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_StencilSweepVar)->Arg(24)->Arg(48)->Arg(64);

void BM_StencilRows(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    core::Field3 cur({n, n, n}, 1.0);
    core::Field3 nxt({n, n, n});
    const auto a = core::tensor_product_coeffs({1, 1, 1}, 1.0);
    core::fill_periodic_halo(cur);
    const core::RowSpace rows({cur.interior()});
    for (auto _ : state) {
        core::apply_stencil_rows(a, cur, nxt, rows, 0, rows.size());
        benchmark::DoNotOptimize(nxt.raw().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_StencilRows)->Arg(48)->Arg(64);

void BM_CopyRows(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    core::Field3 src({n, n, n}, 1.0);
    core::Field3 dst({n, n, n});
    const core::RowSpace rows({src.interior()});
    for (auto _ : state) {
        core::copy_rows(src, dst, rows, 0, rows.size());
        benchmark::DoNotOptimize(dst.raw().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * n * n);
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * n * n *
                            static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_CopyRows)->Arg(48)->Arg(64);

void BM_PeriodicHaloFill(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    core::Field3 f({n, n, n}, 1.0);
    for (auto _ : state) {
        core::fill_periodic_halo(f);
        benchmark::DoNotOptimize(f.raw().data());
    }
}
BENCHMARK(BM_PeriodicHaloFill)->Arg(48);

void BM_HaloFillParallel(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    omp::ThreadTeam team(1);
    core::Field3 f({n, n, n}, 1.0);
    for (auto _ : state) {
        impl::halo_fill_parallel(team, f);
        benchmark::DoNotOptimize(f.raw().data());
    }
}
BENCHMARK(BM_HaloFillParallel)->Arg(48)->Arg(96);

void BM_PackUnpackFace(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    core::Field3 f({n, n, n}, 2.0);
    const auto plan = core::HaloPlan::make(f.extents());
    std::vector<double> buf(plan.dims[2].send_low.volume());
    for (auto _ : state) {
        core::pack(f, plan.dims[2].send_low, buf);
        core::unpack(f, plan.dims[2].recv_high, buf);
        benchmark::DoNotOptimize(buf.data());
    }
}
BENCHMARK(BM_PackUnpackFace)->Arg(48)->Arg(96);

void BM_ParallelForGuided(benchmark::State& state) {
    const int threads = static_cast<int>(state.range(0));
    omp::ThreadTeam team(threads);
    std::vector<double> data(1 << 16, 1.0);
    for (auto _ : state) {
        omp::parallel_for(team, 0, static_cast<std::int64_t>(data.size()),
                          omp::Schedule::Guided,
                          [&data](std::int64_t lo, std::int64_t hi) {
                              for (std::int64_t i = lo; i < hi; ++i)
                                  data[static_cast<std::size_t>(i)] *= 1.0001;
                          });
        benchmark::DoNotOptimize(data.data());
    }
}
BENCHMARK(BM_ParallelForGuided)->Arg(1)->Arg(2)->Arg(4);

/// Ranks run on their own threads, so this is timed in real time: the
/// calling thread's CPU time would only cover spawning and joining them.
void BM_HaloExchangeRanks(benchmark::State& state) {
    const int ntasks = static_cast<int>(state.range(0));
    const core::Extents3 g{24, 24, 24};
    const auto decomp = core::make_decomposition(g, ntasks);
    for (auto _ : state) {
        msg::run_ranks(decomp.nranks(), [&](msg::Communicator& comm) {
            core::Field3 f(decomp.local_extents(comm.rank()), 1.0);
            impl::HaloExchange ex(decomp, comm.rank());
            for (int s = 0; s < 4; ++s) ex.exchange_all(comm, f);
        });
    }
    state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_HaloExchangeRanks)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Kernels run on the device's executor thread, so this is timed in real
/// time: the calling thread's CPU time would only cover the enqueue and the
/// wait.
void BM_SimulatedGpuStencil(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    const auto a = core::tensor_product_coeffs({1, 1, 1}, 1.0);
    impl::upload_coefficients(dev, a);
    auto s = dev.create_stream();
    core::Field3 host({n, n, n}, 1.0);
    impl::DeviceField d_in(dev, host.extents()), d_out(dev, host.extents());
    s.memcpy_h2d(d_in.buffer(), 0, host.raw());
    s.synchronize();
    for (auto _ : state) {
        launch_stencil(s, dev, d_in, d_out, host.interior(), 8, 8);
        s.synchronize();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_SimulatedGpuStencil)->Arg(24)->Arg(48)->UseRealTime();

void BM_RowSpaceDecode(benchmark::State& state) {
    const core::RowSpace rows({{{0, 0, 0}, {64, 64, 64}},
                               {{0, 64, 0}, {64, 96, 64}}});
    std::int64_t idx = 0;
    for (auto _ : state) {
        const auto r = rows.row(idx % rows.size());
        benchmark::DoNotOptimize(r);
        ++idx;
    }
}
BENCHMARK(BM_RowSpaceDecode);

}  // namespace

BENCHMARK_MAIN();
