#pragma once
/// \file cpu_kernels.hpp
/// Thread-parallel building blocks shared by the CPU sides of all
/// implementations: the periodic halo copy (paper Step 1), plus small
/// utilities (timing, global assembly, result finishing). The stencil
/// update (Step 2) runs through PlanExecutor's one sweep dispatch, and the
/// new-to-current state copy (Step 3) is the executor's O(1) flip of the
/// field pair (impl/plan_executor.hpp).

#include "core/field.hpp"
#include "impl/config.hpp"
#include "omp/parallel_for.hpp"

namespace advect::impl {

/// Wall-clock seconds from a monotonic clock (the substrate's
/// system_clock; the paper uses the Fortran intrinsic of that name).
[[nodiscard]] double now_seconds();

/// Step 1 for the single-task case: periodic halo copies within one field,
/// dimension-serialized, each team thread running a row chunk of
/// core::fill_periodic_halo_rows (the paper parallelises the outer loops
/// of the doubly nested copy loops). `dim` -1 fills all three stages, else
/// only stage `dim` (the open-face plans' per-dimension HaloFill).
/// Value-identical to core::fill_periodic_halo(_dim). The unfused periodic
/// single_task executor runs it on its first step only; its sweep's row
/// epilogue keeps the halo current after that.
void halo_fill_parallel(advect::omp::ThreadTeam& team, core::Field3& f,
                        int dim = -1);

/// Write `local`'s interior into `global` at `origin`. Writes are disjoint
/// across ranks, so concurrent assembly needs no locking.
void write_block(core::Field3& global, const core::Field3& local,
                 const core::Index3& origin);

/// Build the SolveResult: attach analytic-error norms to the final state.
[[nodiscard]] SolveResult finish_result(const SolverConfig& cfg,
                                        core::Field3 state, double wall);

}  // namespace advect::impl
