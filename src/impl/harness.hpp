#pragma once
/// \file harness.hpp
/// The shared solver harness: everything the nine §IV implementations have
/// in common — decomposition, rank loop, field and substrate setup, timing
/// barriers, wall-clock reduction, final-state assembly — owned once. An
/// implementation is nothing but its step plan (src/plan/build_<id>.cpp);
/// run_plan_solver builds it and runs it through the PlanExecutor.
///
/// The per-rank body is exposed as run_plan_rank so both rank substrates
/// share it verbatim: run_plan_solver runs it on rank threads over the
/// in-process transport, and the process launcher (impl/launch.hpp) runs it
/// in rank processes over the mesh transport.

#include <string>

#include "core/decomposition.hpp"
#include "core/field.hpp"
#include "impl/config.hpp"
#include "msg/comm.hpp"
#include "plan/ir.hpp"

namespace advect::gpu {
class Device;
}  // namespace advect::gpu

namespace advect::impl {

/// What one rank's execution of a step plan produces: the rank's final local
/// state (interior valid; halos unspecified) and the job wall time, which is
/// the allreduce-max over ranks of each rank's barrier-to-barrier loop time
/// and therefore identical on every rank.
struct RankOutcome {
    core::Field3 state;
    double wall_seconds = 0.0;
};

/// Execute `plan` as rank `comm.rank()` of `decomp`: set up fields, halo
/// exchange, and (when the plan uses the GPU) streams and staging on
/// `device`, run `cfg.steps` steps through the PlanExecutor between timing
/// barriers, and finalize the rank's state. `device` must be non-null iff
/// `plan.uses_gpu`. Collective calls make this a collective: every rank of
/// `decomp` must run it concurrently over the same transport.
[[nodiscard]] RankOutcome run_plan_rank(const plan::StepPlan& plan,
                                        const SolverConfig& cfg,
                                        const core::Decomp3& decomp,
                                        msg::Communicator& comm,
                                        gpu::Device* device);

/// Solve `cfg` with implementation `impl_id` by building its step plan
/// (plan::build_step_plan) on every rank's local extents and executing it.
/// Wall-clock is the allreduce-max over ranks of each rank's barrier-to-
/// barrier loop time. Geometry the plan builder rejects (e.g. a
/// box_thickness leaving no GPU block) throws std::invalid_argument on the
/// calling thread, before any rank thread starts.
[[nodiscard]] SolveResult run_plan_solver(const std::string& impl_id,
                                          const SolverConfig& cfg);

}  // namespace advect::impl
