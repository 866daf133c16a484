#include "verify/convergence.hpp"

#include <cmath>
#include <cstdio>

#include "impl/harness.hpp"
#include "impl/registry.hpp"
#include "verify/mms.hpp"

namespace advect::verify {

OrderStudy convergence_study(const std::string& impl_id,
                             const StudyParams& params) {
    const impl::Implementation& im = impl::find_implementation(impl_id);
    OrderStudy study;
    study.impl_id = impl_id;
    const int n0 = params.grids.front();
    for (const int n : params.grids) {
        impl::SolverConfig cfg;
        switch (params.regime) {
            case StudyRegime::Constant:
                cfg.problem = params.mixed
                                  ? mms_mixed_problem(n, params.nu_fraction)
                                  : mms_problem(n, params.nu_fraction);
                break;
            case StudyRegime::SolidBodyRotation:
                cfg.problem = mms_variable_problem(
                    n, core::VelocityKind::SolidBodyRotation,
                    params.nu_fraction);
                break;
            case StudyRegime::Deformational:
                cfg.problem = mms_variable_problem(
                    n, core::VelocityKind::Deformational,
                    params.nu_fraction);
                break;
            case StudyRegime::InflowX:
                cfg.problem = params.mixed
                                  ? inflow_problem(n, params.nu_fraction)
                                  : inflow_mms_problem(n, params.nu_fraction);
                break;
            case StudyRegime::OpenBox:
                cfg.problem = open_box_problem(n, params.nu_fraction);
                break;
        }
        // Same simulated time on every rung: dt halves as h halves, so the
        // step count doubles.
        cfg.steps = params.coarse_steps * (n / n0);
        cfg.ntasks = params.ntasks;
        cfg.threads_per_task = params.threads;
        const impl::SolveResult r = impl::run_plan_solver(im.id, cfg);
        study.points.push_back({n, cfg.steps, r.error});
    }
    const std::size_t m = study.points.size();
    if (m >= 2) {
        const core::Norms& coarse = study.points[m - 2].error;
        const core::Norms& fine = study.points[m - 1].error;
        if (coarse.l2 > 0.0 && fine.l2 > 0.0)
            study.order_l2 = std::log2(coarse.l2 / fine.l2);
        if (coarse.linf > 0.0 && fine.linf > 0.0)
            study.order_linf = std::log2(coarse.linf / fine.linf);
    }
    return study;
}

std::string format_study(const OrderStudy& study) {
    std::string out;
    char line[160];
    std::snprintf(line, sizeof line, "%s\n%8s %8s %14s %14s\n",
                  study.impl_id.c_str(), "grid", "steps", "L2 error",
                  "Linf error");
    out += line;
    for (const OrderPoint& p : study.points) {
        std::snprintf(line, sizeof line, "%7d^3 %8d %14.4e %14.4e\n", p.n,
                      p.steps, p.error.l2, p.error.linf);
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "observed order: L2 %.3f, Linf %.3f (formal order 2)\n",
                  study.order_l2, study.order_linf);
    out += line;
    return out;
}

}  // namespace advect::verify
