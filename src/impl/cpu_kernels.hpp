#pragma once
/// \file cpu_kernels.hpp
/// Thread-parallel building blocks shared by the CPU sides of all
/// implementations: the periodic halo copy (paper Step 1), plus small
/// utilities (timing, global assembly, result finishing). The stencil
/// update (Step 2) and the new-to-current state copy (Step 3) run through
/// PlanExecutor's one sweep dispatch (impl/plan_executor.hpp).

#include "core/field.hpp"
#include "impl/config.hpp"
#include "omp/parallel_for.hpp"

namespace advect::impl {

/// Wall-clock seconds from a monotonic clock (the substrate's
/// system_clock; the paper uses the Fortran intrinsic of that name).
[[nodiscard]] double now_seconds();

/// Step 1 for the single-task case: periodic halo copies within one field,
/// dimension-serialized, rows parallelised across the team (the paper
/// parallelises the outer loops of the doubly nested copy loops).
void halo_fill_parallel(advect::omp::ThreadTeam& team, core::Field3& f);

/// Write `local`'s interior into `global` at `origin`. Writes are disjoint
/// across ranks, so concurrent assembly needs no locking.
void write_block(core::Field3& global, const core::Field3& local,
                 const core::Index3& origin);

/// Build the SolveResult: attach analytic-error norms to the final state.
[[nodiscard]] SolveResult finish_result(const SolverConfig& cfg,
                                        core::Field3 state, double wall);

}  // namespace advect::impl
