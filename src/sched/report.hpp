#pragma once
/// \file report.hpp
/// Introspection over the modelled schedules: per-resource utilization and
/// a phase breakdown for one implementation at one configuration. This is
/// how the repository *shows* where a configuration's time goes — e.g.
/// that §IV-F leaves the GPU idle most of the step while PCIe and MPI
/// serialize, or that §IV-I keeps every resource busy at once (the paper's
/// "can overlap more than two types of operation").

#include <string>
#include <vector>

#include "sched/node_model.hpp"
#include "trace/span.hpp"

namespace advect::sched {

/// Busy fraction of one modelled node resource over the steady-state step.
struct ResourceUsage {
    std::string name;   ///< "cpu", "nic", "pcie", "gpu"
    double utilization; ///< busy fraction in [0, 1]
};

/// Time-accounting report for one (implementation, configuration) pair.
struct StepReport {
    double step_seconds = 0.0;  ///< steady-state modelled step time
    double gflops = 0.0;        ///< machine-wide GF at 53 flops/point
    std::vector<ResourceUsage> resources;
    /// Sum over resources of (busy seconds): a measure of how much total
    /// machine activity one step packs. overlap_factor = busy_total /
    /// step_seconds; 1.0 means fully serialized, higher means overlapped.
    double overlap_factor = 0.0;

    [[nodiscard]] double utilization_of(const std::string& name) const;
};

/// Build the report (runs the same task graph as step_time). Returns a
/// report with step_seconds = infinity for infeasible configurations.
[[nodiscard]] StepReport step_report(Code impl, const RunConfig& cfg);

/// Render a small fixed-width table for terminal output.
[[nodiscard]] std::string format_report(Code impl, const RunConfig& cfg,
                                        const StepReport& report);

/// Bridge from the modelled schedule to the runtime trace format: build and
/// run `steps` steps of the implementation's task graph and return its
/// executed intervals as trace spans (category "des", lanes mapped from the
/// engine's "cpu"/"nic"/"pcie"/"gpu" resources). The modelled timeline can
/// then flow through the same Chrome-JSON / overlap-summary exporters as a
/// real execution. Empty for infeasible configurations.
[[nodiscard]] std::vector<trace::Span> step_spans(Code impl,
                                                  const RunConfig& cfg,
                                                  int steps = 2);

}  // namespace advect::sched
