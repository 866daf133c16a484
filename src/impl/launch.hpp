#pragma once
/// \file launch.hpp
/// One front door for running an implementation under either rank substrate
/// (docs/TRANSPORT.md): ranks as threads over the in-process mailbox
/// transport, or ranks as forked worker processes over the mesh transport,
/// joined by inherited socketpairs or by TCP rendezvous. Either way the job
/// is laid out once (impl::plan_job) and the one rank body
/// (impl::run_plan_rank) runs each rank's plan, and the launcher ships each
/// worker's trace spans and chaos fault log back to the caller, so
/// `advectctl trace`/`chaos` output is identical across transports.

#include <string>
#include <vector>

#include "chaos/fault.hpp"
#include "impl/config.hpp"
#include "msg/transport/mesh.hpp"
#include "trace/span.hpp"

namespace advect::impl {

/// Which rank substrate carries the job.
enum class TransportKind {
    InProcess,  ///< ranks are threads sharing a msg::World (the default)
    Socket,     ///< forked processes on an inherited socketpair mesh
    Tcp,        ///< forked processes on a rendezvous'd TCP mesh
                ///< (docs/TRANSPORT.md §stage 2)
};

[[nodiscard]] const char* transport_name(TransportKind kind);
/// Parse "inproc" / "socket" / "tcp"; throws std::invalid_argument otherwise.
[[nodiscard]] TransportKind transport_from_name(const std::string& name);

struct LaunchOptions {
    TransportKind transport = TransportKind::InProcess;
    /// Forked transports (socket and tcp): run the mesh transport's progress
    /// engine as a dedicated thread (asynchronous progress) or as the polled
    /// no-progress state machine. Defaults from ADVECT_PROGRESS ("off" =>
    /// Polled).
    msg::ProgressMode progress = msg::progress_mode_from_env();
    /// Record trace spans during the run and return them in the report.
    bool trace = false;
    /// When non-null, run under this chaos plan (each worker process
    /// installs its own Session; draws are keyed per rank, so the merged
    /// fault log is identical across transports).
    const chaos::FaultPlan* fault_plan = nullptr;
};

struct LaunchReport {
    SolveResult result;
    /// Merged fault log of all ranks, in canonical order (chaos::sort_log);
    /// empty when no fault plan was given.
    std::vector<chaos::FaultEvent> fault_log;
    /// Merged spans of all ranks, sorted by start time and rebased onto one
    /// timeline (the workers share the system monotonic clock); empty when
    /// opts.trace is false.
    std::vector<trace::Span> spans;
};

/// Solve `cfg` with implementation `impl_id` over the chosen transport.
/// The implementations that use no communication (§IV-A/E) are one-rank
/// jobs on every transport: one rank thread in process, one worker process
/// on the forked transports, which fork one worker per rank of the
/// decomposition. Simulated GPUs live per process there, so
/// `cfg.tasks_per_gpu > 1` sharing is an in-process-only feature; runs with
/// the default of one task per GPU are bitwise identical across transports.
///
/// The caller must not have trace recording enabled or a chaos session
/// installed: the launcher owns both for the duration of the run and hands
/// the recorder back switched off, whether the solve returns or throws.
[[nodiscard]] LaunchReport launch_solver(const std::string& impl_id,
                                         const SolverConfig& cfg,
                                         const LaunchOptions& opts);

}  // namespace advect::impl
