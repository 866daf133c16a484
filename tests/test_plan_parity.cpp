/// \file test_plan_parity.cpp
/// The tentpole guarantee of the plan IR: for every implementation, the
/// trace the *executed* code emits and the task graph the *DES model*
/// simulates are the same plan. One rank's per-step "plan" spans must match
/// the plan's task names, lanes and dependency order, and the modelled
/// step_spans must contain exactly the plan's tasks — so a driver, builder,
/// or lowering that drifts from the others fails here, not in a bench.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/decomposition.hpp"
#include "impl/harness.hpp"
#include "impl/registry.hpp"
#include "plan/builders.hpp"
#include "sched/node_model.hpp"
#include "sched/report.hpp"
#include "trace/span.hpp"

namespace core = advect::core;
namespace impl = advect::impl;
namespace model = advect::model;
namespace plan = advect::plan;
namespace sched = advect::sched;
namespace trace = advect::trace;

namespace {

constexpr int kN = 24;
constexpr int kSteps = 4;
constexpr int kTasks = 4;
constexpr int kBox = 2;

/// The plan rank 0 executes under the test configuration.
plan::StepPlan rank0_plan(const impl::Implementation& entry) {
    core::Extents3 local{kN, kN, kN};
    if (entry.uses_mpi) {
        const auto decomp =
            core::make_decomposition({kN, kN, kN}, kTasks);
        local = decomp.local_extents(0);
    }
    return plan::build_step_plan(entry.id, {local, kBox});
}

/// Rank-0 "plan"-category spans of a traced solve, in emission order.
std::vector<trace::Span> rank0_plan_spans(const impl::Implementation& entry) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(kN);
    cfg.steps = kSteps;
    cfg.ntasks = entry.uses_mpi ? kTasks : 1;
    cfg.threads_per_task = 2;
    cfg.block_x = 8;
    cfg.block_y = 4;
    cfg.box_thickness = kBox;

    trace::reset();
    trace::set_enabled(true);
    (void)impl::run_plan_solver(entry.id, cfg);
    trace::set_enabled(false);

    std::vector<trace::Span> out;
    for (const auto& s : trace::snapshot())
        if (std::strcmp(s.category, "plan") == 0 && s.rank == 0)
            out.push_back(s);
    // One rank thread emits its spans with monotonically increasing end
    // times (§IV-D's master span starts mid-region, so sort by t1, not t0).
    std::stable_sort(out.begin(), out.end(),
                     [](const trace::Span& a, const trace::Span& b) {
                         return a.t1 < b.t1;
                     });
    return out;
}

}  // namespace

/// Executed structure == planned structure, for every implementation: each
/// step emits exactly the plan's tasks on the plan's lanes, and every
/// planned dependency edge is respected by the measured timestamps.
TEST(PlanParity, ExecutedTraceMatchesPlanEveryStep) {
    for (const auto& entry : impl::registry()) {
        SCOPED_TRACE(entry.id);
        const plan::StepPlan p = rank0_plan(entry);
        const auto spans = rank0_plan_spans(entry);
        const std::size_t per_step = p.tasks.size();
        ASSERT_EQ(spans.size(), per_step * kSteps);

        for (int s = 0; s < kSteps; ++s) {
            const std::size_t base = static_cast<std::size_t>(s) * per_step;

            // Same tasks on the same lanes, step after step.
            std::map<std::string, trace::Lane> seen;
            for (std::size_t i = 0; i < per_step; ++i)
                seen.emplace(spans[base + i].name, spans[base + i].lane);
            ASSERT_EQ(seen.size(), per_step) << "step " << s;
            for (const auto& t : p.tasks) {
                const auto it = seen.find(t.name);
                ASSERT_NE(it, seen.end()) << "step " << s << ": " << t.name;
                EXPECT_EQ(it->second, t.lane) << "step " << s << ": "
                                              << t.name;
            }

            // Host-issued steps replay the plan's issue order exactly.
            if (p.mode == plan::Mode::HostIssue)
                for (std::size_t i = 0; i < per_step; ++i)
                    EXPECT_EQ(spans[base + i].name, p.tasks[i].name)
                        << "step " << s << ", position " << i;

            // Every planned dependency edge holds in the measured timeline:
            // a task's span never ends before its dependency's began.
            std::map<std::string, std::size_t> index;
            for (std::size_t i = 0; i < per_step; ++i)
                index.emplace(spans[base + i].name, base + i);
            for (const auto& t : p.tasks)
                for (const int d : t.deps) {
                    const auto& dep = p.tasks[static_cast<std::size_t>(d)];
                    EXPECT_GE(spans[index[t.name]].t1,
                              spans[index[dep.name]].t0)
                        << "step " << s << ": " << t.name << " vs "
                        << dep.name;
                }
        }
    }
}

/// Modelled structure == planned structure: the DES lowering simulates
/// exactly the plan's tasks (plus its one step-0 anchor per chain), each on
/// the lane of the plan task's resource claim.
TEST(PlanParity, ModelledSpansMatchPlan) {
    const char* kIds[] = {
        "single_task",        "mpi_bulk",     "mpi_nonblocking",
        "mpi_thread_overlap", "gpu_resident", "gpu_mpi_bulk",
        "gpu_mpi_streams",    "cpu_gpu_bulk", "cpu_gpu_overlap",
    };
    constexpr int kModelSteps = 3;
    for (const char* id : kIds) {
        SCOPED_TRACE(id);
        const auto code = sched::code_from_id(id);
        sched::RunConfig cfg;
        cfg.machine = model::MachineSpec::yona();
        cfg.nodes = 1;
        cfg.threads_per_task = cfg.machine.cores_per_node();  // one chain
        cfg.box_thickness = kBox;

        const plan::StepPlan p = sched::plan_for(code, cfg);
        const auto spans = sched::step_spans(code, cfg, kModelSteps);
        ASSERT_EQ(spans.size(), 1 + p.tasks.size() * kModelSteps);

        std::map<std::string, int> count;
        for (const auto& s : spans) ++count[s.name];
        EXPECT_EQ(count["anchor"], 1);
        for (const auto& t : p.tasks) {
            EXPECT_EQ(count[t.name], kModelSteps) << t.name;
            for (const auto& s : spans)
                if (s.name == t.name)
                    EXPECT_EQ(s.lane, t.lane) << t.name;
        }
    }
}

/// The plan the model simulates is the plan the rank executes: identical
/// task lists for the same local geometry.
TEST(PlanParity, PlanForMatchesRankPlan) {
    sched::RunConfig cfg;
    cfg.machine = model::MachineSpec::yona();
    cfg.nodes = 1;
    cfg.threads_per_task = cfg.machine.cores_per_node();
    cfg.box_thickness = 1;
    for (const auto& entry : impl::registry()) {
        const auto code = sched::code_from_id(entry.id);
        const plan::StepPlan p = sched::plan_for(code, cfg);
        EXPECT_EQ(p.impl_id, entry.id);
        EXPECT_EQ(p.validate_error(), "");
        EXPECT_EQ(entry.uses_gpu, p.uses_gpu) << entry.id;
        EXPECT_EQ(entry.uses_mpi, p.uses_comm) << entry.id;
    }
}
