#include "verify/schedule.hpp"

#include <cstdio>

#include "impl/harness.hpp"

namespace advect::verify {

ScheduleReport explore_schedules(const std::string& impl_id,
                                 impl::SolverConfig cfg,
                                 const std::vector<unsigned>& seeds) {
    ScheduleReport report;
    report.impl_id = impl_id;

    cfg.schedule_seed = 0;
    const impl::SolveResult baseline = impl::run_plan_solver(impl_id, cfg);

    for (const unsigned seed : seeds) {
        cfg.schedule_seed = seed == 0 ? 1 : seed;
        const impl::SolveResult permuted =
            impl::run_plan_solver(impl_id, cfg);
        ++report.seeds_run;
        if (!permuted.state.interior_equals(baseline.state))
            report.divergent.push_back(cfg.schedule_seed);
    }
    return report;
}

std::string format_report(const ScheduleReport& report) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%-18s %d permuted schedules, %zu divergent%s\n",
                  report.impl_id.c_str(), report.seeds_run,
                  report.divergent.size(), report.ok() ? " (ok)" : "");
    return buf;
}

}  // namespace advect::verify
