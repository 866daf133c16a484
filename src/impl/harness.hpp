#pragma once
/// \file harness.hpp
/// The shared solver harness: everything the nine §IV implementations have
/// in common — decomposition, rank loop, field and substrate setup, timing
/// barriers, wall-clock reduction, final-state assembly — owned once. An
/// implementation is nothing but its step plan (src/plan/build_<id>.cpp);
/// plan_job lays a job out as one plan per rank and run_plan_rank, the one
/// rank body, runs a plan through the PlanExecutor.
///
/// The implementations that use no communication (§IV-A/E) are one-rank
/// jobs, so every implementation runs through the same timed loop on every
/// substrate: run_plan_solver runs run_plan_rank on rank threads over the
/// in-process transport, and the process launcher (impl/launch.hpp) runs it
/// in rank processes over the mesh transport.

#include <string>
#include <vector>

#include "core/decomposition.hpp"
#include "core/field.hpp"
#include "impl/config.hpp"
#include "msg/comm.hpp"
#include "plan/ir.hpp"

namespace advect::gpu {
class Device;
}  // namespace advect::gpu

namespace advect::impl {

/// A job laid out for its ranks: the decomposition (one rank for the
/// implementations the registry marks uses_mpi == false) and every rank's
/// validated step plan, indexed by rank.
struct PlanJob {
    core::Decomp3 decomp;
    std::vector<plan::StepPlan> plans;
};

/// Lay out the job `cfg` asks of implementation `impl_id`: validate the
/// scenario, decide whether the job may fuse, decompose the domain and
/// build every rank's plan on its local extents and open faces. Runs on the
/// calling thread, before any rank starts, so a bad job throws here instead
/// of stranding ranks in a barrier: std::invalid_argument for an invalid
/// scenario or a geometry the builder rejects (e.g. a box_thickness leaving
/// a rank no GPU block), and std::out_of_range for an unknown
/// implementation. plan::FuseGeometryError rejects cfg.fuse > 1 unless the
/// problem is periodic, constant-coefficient and source-free with
/// coefficients that compact to one live term (the register chain is the
/// only fused kernel), naming the reason; and, naming the rank, a fuse
/// factor whose deepened halo exceeds a rank's local box.
[[nodiscard]] PlanJob plan_job(const std::string& impl_id,
                               const SolverConfig& cfg);

/// What one rank's execution of a step plan produces: the rank's final local
/// state (interior valid; halos unspecified) and the job wall time, which is
/// the allreduce-max over ranks of each rank's barrier-to-barrier loop time
/// and therefore identical on every rank.
struct RankOutcome {
    core::Field3 state;
    double wall_seconds = 0.0;
};

/// Execute `plan` as rank `comm.rank()` of `decomp`: set up what the plan
/// declares (host fields, halo exchange, and, when the plan uses the GPU,
/// streams, device fields and staging on `device`, whose constant memory
/// this rank fills with the coefficients when `first_on_device`, i.e. when
/// no earlier rank sharing the device does), run `cfg.steps` steps
/// through the PlanExecutor between timing barriers, with every stream
/// synchronized before the closing one, and finalize the rank's state.
/// `device` must be non-null iff `plan.uses_gpu`. Collective calls make
/// this a collective: every rank of `decomp` must run it concurrently over
/// the same transport.
[[nodiscard]] RankOutcome run_plan_rank(const plan::StepPlan& plan,
                                        const SolverConfig& cfg,
                                        const core::Decomp3& decomp,
                                        msg::Communicator& comm,
                                        gpu::Device* device,
                                        bool first_on_device);

/// Solve `cfg` with implementation `impl_id`: lay the job out (plan_job,
/// whose errors are thrown on the calling thread) and run every rank's plan
/// on its own rank thread. Wall-clock is the allreduce-max over ranks of
/// each rank's barrier-to-barrier loop time.
[[nodiscard]] SolveResult run_plan_solver(const std::string& impl_id,
                                          const SolverConfig& cfg);

}  // namespace advect::impl
