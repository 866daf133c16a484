#pragma once
/// \file service.hpp
/// The service phase: an in-process advectd (service::Daemon on its own
/// thread) fed by one generator thread over four tenant connections with
/// fair-share weights 2:1:1:1. Two phases: an open loop at one fixed
/// Poisson rate, with each job's latency timed from its due time (so a
/// generator held up by a busy daemon still charges the wait to the job);
/// then a saturating phase that keeps every tenant's queue non-empty.

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct ServiceParams {
    double open_s = 1.0;  ///< open-loop phase length
    double sat_s = 1.0;   ///< saturating phase length
    std::string socket_path;
};

struct ServiceOutcome {
    std::vector<double> latency_s;     ///< open loop: due time -> completion
    std::vector<double> late_s;        ///< open loop: generator lateness
    std::vector<double> queue_wait_s;  ///< every job: admission -> dispatch
    std::vector<double> run_s;         ///< every job: stepping-loop wall
    std::vector<double> dispatch_s;    ///< every job: turnaround - wait - run
    std::vector<double> cost_ratio;    ///< every job: modelled price / run
    double sat_jobs = 0.0;     ///< saturating phase: jobs completed
    double sat_seconds = 0.0;  ///< ... in this much time
    double sat_batches = 0.0;  ///< ... over this many dispatches
    std::vector<double> price_us;  ///< CostOracle::price_seconds, per call

    /// Append another run's samples (the phases run in slices between the
    /// solver repetitions).
    void merge(const ServiceOutcome& o);
};

/// Run both phases; every job's outcome is checked against the reference
/// solution's error norms (bitwise-equal states give bitwise-equal norms).
[[nodiscard]] ServiceOutcome run_service(const ServiceParams& params, Rng& rng,
                                         CallLog& log, Tally& tally);

}  // namespace perfbench
