#pragma once
/// \file probes.hpp
/// Single-layer probes: each times one library entry point in isolation on
/// the workload's per-rank box, in real time, so a per-layer metric can move
/// without the whole solve moving.

#include <string>

#include "bench.hpp"
#include "core/decomposition.hpp"
#include "impl/config.hpp"

namespace perfbench {

/// The per-rank geometry of a workload: the decomposition its multi-rank
/// implementations run on, and the problem it advances.
struct Geometry {
    advect::impl::SolverConfig cfg;  ///< ntasks = the CPU rank count
    advect::core::Decomp3 decomp;
};

/// Time every probe and add its metrics (core.kernel_mpts, core.copy_gbs,
/// msg.exchange_us.{inproc,socket,tcp}, gpu.launch_us, omp.parallel_for_us,
/// plan.build_ms) to `out`. Forks rank processes for the socket and tcp
/// probes, so the caller must have no other threads alive.
void run_probes(const Geometry& g, CallLog& log, Tally& tally, Metrics& out);

}  // namespace perfbench
