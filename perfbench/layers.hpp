#pragma once
/// \file layers.hpp
/// Per-layer breakdown of one traced solve (README.md "Reading the
/// per-layer table"). The executor's recorder stamps one "plan" span per
/// task per step; each span is mapped back to its plan::Op through the
/// rank's own plan::build_step_plan. HostIssue plans run their tasks one
/// after another, so each row is the raw sum of its spans. TeamStages plans
/// (mpi_thread_overlap) run the master exchange under the worker stages;
/// there each overlapped interval is split lane-aware, 1/k to each of the k
/// spans covering it. Whatever the rows leave of the loop wall is
/// "unattributed" (dispatch, barriers, loop overhead).

#include <array>
#include <string>
#include <vector>

#include "impl/config.hpp"
#include "trace/span.hpp"

namespace perfbench {

/// Row of the breakdown a plan::Op is charged to.
enum class Row {
    Stencil,       ///< Stencil
    Copy,          ///< Copy
    HaloFill,      ///< HaloFill
    BoundaryFill,  ///< BoundaryFill
    Pack,          ///< PackSend, HostPack
    Unpack,        ///< Unpack, HostUnpack
    Wait,          ///< Comm, Wait, MasterExchange
    Sync,          ///< Sync (host blocked on the device)
    Enqueue,       ///< host side of the device ops (copies, kernels)
    Other,         ///< PostRecvs, CommDma, Swap
};
inline constexpr std::size_t kRows = 10;

/// One traced solve, per step and averaged over ranks unless noted.
struct LayerSample {
    std::array<double, kRows> row_s{};  ///< seconds per step, per row
    double unattributed_s = 0.0;        ///< loop wall minus the rows
    double wall_s = 0.0;                ///< loop wall per step
    double kernel_busy_s = 0.0;         ///< Gpu lane busy per step
    double pcie_busy_s = 0.0;           ///< Pcie lane busy per step
    double overlap_factor = 0.0;        ///< trace::summarize_rank, rank mean
    long sends = 0;                     ///< isend spans, all ranks, whole loop
    double sends_per_step = 0.0;        ///< sends / steps
    /// Closure: per rank, the raw task time of each host lane (the rank
    /// thread; the master exchange of a TeamStages plan) and the span from
    /// the first step to the last task must each fit in the loop wall. The
    /// largest overshoot, as a share of the wall; 0 when every rank fits.
    /// A duplicated or mis-timed span makes it positive.
    double closure_error = 0.0;
    std::string error;  ///< non-empty when the spans break an invariant
};

/// Break down one traced launch of `impl_id` on `cfg` whose stepping loop
/// took `wall` seconds (SolveResult::wall_seconds).
[[nodiscard]] LayerSample attribute(const std::string& impl_id,
                                    const advect::impl::SolverConfig& cfg,
                                    const std::vector<advect::trace::Span>& spans,
                                    double wall);

}  // namespace perfbench
