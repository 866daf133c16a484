#pragma once
/// \file job.hpp
/// The unit of work advectd accepts: one simulation job, described over the
/// wire as a strict JSON object (docs/SERVICE.md §job spec). Parsing follows
/// the chaos/scenario_file error style — every violation throws
/// std::invalid_argument naming the offending key ("job: steps: expected a
/// positive integer"), unknown keys are rejected, and the daemon ships the
/// message back verbatim in its reject frame so a client can fix the spec
/// from the error alone.

#include <cstdint>
#include <optional>
#include <string>

#include "chaos/fault.hpp"
#include "impl/config.hpp"
#include "impl/launch.hpp"

namespace advect::service {

/// One submitted simulation job. Defaults match `advectctl launch`.
struct JobSpec {
    // --- identity and policy (scheduler-facing) -------------------------
    std::string tenant;       ///< required; the fair-share account
    int priority = 0;         ///< higher runs first *within* the tenant
    double deadline_s = 0.0;  ///< admission gate: reject if the modelled
                              ///< run time exceeds this; 0 = no deadline

    // --- what to run (solver-facing) -------------------------------------
    std::string impl = "cpu_gpu_overlap";
    int n = 24;        ///< global grid points per dimension
    int steps = 8;
    int ranks = 2;     ///< MPI tasks (ignored by single-task impls)
    int threads = 2;   ///< OpenMP threads per task
    /// Temporal-blocking fuse factor. > 1 is legal only on single-term,
    /// periodic, source-free jobs (impl::plan_job): the default standard(n)
    /// problem is Courant 1, a named scenario with open faces or variable
    /// velocity is not. The cpu_gpu_* implementations also need a CPU box
    /// at least `fuse` thick, which a spec cannot set, so they run fuse 1.
    int fuse = 1;
    int block_x = 8;   ///< GPU thread-block tile (small-n friendly)
    int block_y = 4;
    impl::TransportKind transport = impl::TransportKind::InProcess;
    std::string scenario;  ///< workload scenario name; "" = periodic

    // --- chaos (per-job fault plan; the daemon may overlay a game day) ---
    /// "" = fault-free; "gameday-<name>" = the committed game-day catalog;
    /// "<path>.json" = a scenario file; anything else = a named chaos
    /// scenario parameterised by chaos_x / chaos_seed.
    std::string chaos;
    double chaos_x = 200.0;
    std::uint64_t chaos_seed = 42;

    /// Ship the final state back in a kFrameState frame so the client can
    /// verify bitwise identity against a standalone run.
    bool return_state = false;

    /// Throws std::invalid_argument naming the bad key when the spec cannot
    /// be run (unknown impl, non-positive geometry, unknown transport...),
    /// including every job impl::plan_job would refuse to lay out: a
    /// plan::FuseGeometryError names `fuse`.
    void validate() const;

    /// The solver configuration this spec maps to, including the
    /// variable-coefficient nu rescale `advectctl launch` applies.
    [[nodiscard]] impl::SolverConfig solver_config() const;

    /// The resolved per-job fault plan; nullopt when chaos is "".
    [[nodiscard]] std::optional<chaos::FaultPlan> fault_plan() const;

    /// Batch-compatibility key: every field that changes the solver outcome
    /// or its execution substrate (everything except tenant, priority,
    /// deadline_s and return_state). The fleet manager batches queued jobs
    /// of one tenant with equal keys into a single launch.
    [[nodiscard]] std::string key() const;
};

/// Parse a job spec from its JSON wire form. `origin` names the source in
/// error messages. Strict: wrong types, out-of-range values and unknown
/// keys all throw std::invalid_argument naming the key.
[[nodiscard]] JobSpec job_from_json(const std::string& text,
                                    const std::string& origin = "job");

/// Serialize a spec to the wire form job_from_json accepts (defaults
/// included, so the document round-trips).
[[nodiscard]] std::string job_to_json(const JobSpec& spec);

}  // namespace advect::service
