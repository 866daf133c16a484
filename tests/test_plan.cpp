/// \file test_plan.cpp
/// The step-plan IR: all nine builders produce valid plans on a range of
/// geometries, and validate() rejects the malformed plans a hand-written
/// builder could produce — cyclic or dangling dependencies, duplicate
/// names, tasks on resource lanes the plan never claims, and host-state
/// tasks the Copy flip leaves unordered.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "plan/builders.hpp"

namespace core = advect::core;
namespace plan = advect::plan;

namespace {

const char* kIds[] = {
    "single_task",    "mpi_bulk",       "mpi_nonblocking",
    "mpi_thread_overlap", "gpu_resident", "gpu_mpi_bulk",
    "gpu_mpi_streams", "cpu_gpu_bulk",   "cpu_gpu_overlap",
};

/// A minimal two-task plan to mutate into invalid shapes.
plan::StepPlan tiny_plan() {
    plan::StepPlan p;
    p.impl_id = "tiny";
    plan::Task a;
    a.name = "a";
    a.op = plan::Op::HaloFill;
    a.lane = advect::trace::Lane::Cpu;
    plan::Task b;
    b.name = "b";
    b.op = plan::Op::Copy;
    b.lane = advect::trace::Lane::Cpu;
    b.deps = {0};
    p.tasks = {a, b};
    p.terminal = 1;
    return p;
}

}  // namespace

TEST(PlanBuilders, AllNineValidate) {
    for (const char* id : kIds) {
        const auto p = plan::build_step_plan(id, {{24, 24, 24}, 2});
        EXPECT_EQ(p.validate_error(), "") << id;
        EXPECT_EQ(p.impl_id, id);
        EXPECT_FALSE(p.tasks.empty()) << id;
        EXPECT_EQ(p.terminal, static_cast<int>(p.tasks.size()) - 1) << id;
    }
}

TEST(PlanBuilders, ThinSubdomainsValidate) {
    // Degenerate geometry: plane-thin local domains with empty interior
    // thirds and missing boundary slabs still produce valid plans.
    for (const char* id : kIds) {
        const auto p = plan::build_step_plan(id, {{5, 4, 3}, 1});
        EXPECT_EQ(p.validate_error(), "") << id;
    }
}

TEST(PlanBuilders, UnknownIdThrows) {
    EXPECT_THROW((void)plan::build_step_plan("nope", {{24, 24, 24}, 1}),
                 std::out_of_range);
}

TEST(PlanBuilders, InfeasibleBoxThrows) {
    // 2 * thickness >= extent leaves no GPU block (§IV-H/I).
    EXPECT_THROW((void)plan::build_step_plan("cpu_gpu_overlap", {{8, 8, 8}, 4}),
                 std::invalid_argument);
    EXPECT_THROW((void)plan::build_step_plan("cpu_gpu_bulk", {{8, 8, 8}, 4}),
                 std::invalid_argument);
}

TEST(PlanBuilders, FindLocatesTasksByName) {
    const auto p = plan::build_step_plan("mpi_bulk", {{24, 24, 24}, 1});
    const int i = p.find("comm_y");
    ASSERT_GE(i, 0);
    EXPECT_EQ(p.tasks[static_cast<std::size_t>(i)].name, "comm_y");
    EXPECT_EQ(p.find("no_such_task"), -1);
}

TEST(PlanValidate, AcceptsTinyPlan) {
    EXPECT_EQ(tiny_plan().validate_error(), "");
    EXPECT_NO_THROW(plan::validate(tiny_plan()));
}

TEST(PlanValidate, RejectsEmptyPlan) {
    plan::StepPlan p;
    EXPECT_NE(p.validate_error(), "");
    EXPECT_THROW(plan::validate(p), std::logic_error);
}

TEST(PlanValidate, RejectsCyclicDependency) {
    // A forward dependency means the issue-order list cannot be executed
    // front to back — the graph has a cycle under issue order.
    auto p = tiny_plan();
    p.tasks[0].deps = {1};
    EXPECT_NE(p.validate_error().find("cyclic"), std::string::npos);
    EXPECT_THROW(plan::validate(p), std::logic_error);

    auto self = tiny_plan();
    self.tasks[1].deps = {1};  // self-edge
    EXPECT_NE(self.validate_error().find("cyclic"), std::string::npos);
}

TEST(PlanValidate, RejectsOutOfRangeDependency) {
    auto p = tiny_plan();
    p.tasks[1].deps = {7};
    EXPECT_NE(p.validate_error().find("out-of-range"), std::string::npos);
}

TEST(PlanValidate, RejectsDuplicateNames) {
    auto p = tiny_plan();
    p.tasks[1].name = "a";
    EXPECT_NE(p.validate_error().find("duplicate"), std::string::npos);
}

TEST(PlanValidate, RejectsBadTerminal) {
    auto p = tiny_plan();
    p.terminal = 5;
    EXPECT_NE(p.validate_error(), "");
}

TEST(PlanValidate, RejectsNicTaskWithoutCommunicator) {
    auto p = tiny_plan();
    ASSERT_FALSE(p.uses_comm);
    p.tasks[1].op = plan::Op::Comm;
    p.tasks[1].lane = advect::trace::Lane::Nic;
    EXPECT_NE(p.validate_error().find("communicator"), std::string::npos);
    p.uses_comm = true;  // claiming the resource fixes it
    EXPECT_EQ(p.validate_error(), "");
}

TEST(PlanValidate, RejectsDeviceTaskWithoutDevice) {
    for (const auto lane :
         {advect::trace::Lane::Gpu, advect::trace::Lane::Pcie}) {
        auto p = tiny_plan();
        ASSERT_FALSE(p.uses_gpu);
        p.tasks[1].op = plan::Op::KernelStencil;
        p.tasks[1].lane = lane;
        EXPECT_NE(p.validate_error().find("device"), std::string::npos);
        p.uses_gpu = true;
        EXPECT_EQ(p.validate_error(), "");
    }
}

TEST(PlanValidate, RejectsHostStateTaskUnorderedWithTheCopy) {
    // The executor flips the host field pair at the Copy task; a host-state
    // task with no path to or from it could be issued on either side.
    auto p = tiny_plan();
    plan::Task stray;
    stray.name = "unpack_shell";
    stray.op = plan::Op::HostUnpack;
    stray.lane = advect::trace::Lane::Cpu;
    stray.deps = {0};  // after the halo fill, unordered with the copy
    p.tasks.push_back(stray);
    p.terminal = 2;
    const std::string err = p.validate_error();
    EXPECT_NE(err.find("'unpack_shell'"), std::string::npos) << err;
    EXPECT_THROW(plan::validate(p), std::logic_error);

    p.tasks[2].deps = {1};  // a descendant: it sees the post-flip fields
    EXPECT_EQ(p.validate_error(), "");
}

TEST(PlanValidate, RejectsSecondCopyTask) {
    auto p = tiny_plan();
    plan::Task again = p.tasks[1];
    again.name = "copy_again";
    again.deps = {1};
    p.tasks.push_back(again);
    p.terminal = 2;
    EXPECT_NE(p.validate_error().find("'copy_again'"), std::string::npos);
}

TEST(PlanValidate, RejectsUnknownCrossStepDep) {
    auto p = tiny_plan();
    p.tasks[0].cross_step_dep = "ghost";
    EXPECT_NE(p.validate_error().find("cross-step"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Temporal blocking (docs/PERF.md): the builders accept a fuse factor and
// must reject, with the typed FuseGeometryError, any factor whose deepened
// halo exceeds the local box (or, for §IV-H/I, the CPU wall thickness).

TEST(PlanFuse, BuildersStampFuseAndLocalExtents) {
    for (const char* id : kIds) {
        const auto p = plan::build_step_plan(id, {{24, 24, 24}, 3, 2});
        EXPECT_EQ(p.fuse, 2) << id;
        EXPECT_EQ(p.local, (core::Extents3{24, 24, 24})) << id;
        EXPECT_EQ(p.validate_error(), "") << id;
    }
}

TEST(PlanFuse, ThinGeometryPropertySweep) {
    // Property: over thin boxes and fuse factors 1..5, a build either
    // succeeds with a valid plan or throws FuseGeometryError exactly when
    // the fuse-deep halo cannot fit — fuse > min extent, or for the box
    // implementations fuse > wall thickness.
    const core::Extents3 shapes[] = {
        {5, 4, 3}, {3, 3, 9}, {4, 7, 3}, {6, 6, 6}, {2, 5, 5}};
    for (const char* id : kIds) {
        const bool box_impl = std::string(id).rfind("cpu_gpu", 0) == 0;
        for (const auto& n : shapes) {
            const int min_ext = std::min({n.nx, n.ny, n.nz});
            const int thickness = 1;
            if (box_impl && 2 * thickness >= min_ext)
                continue;  // box infeasible regardless of fuse
            for (int fuse = 1; fuse <= 5; ++fuse) {
                const bool feasible =
                    fuse <= min_ext && (!box_impl || fuse <= thickness);
                if (feasible) {
                    const auto p =
                        plan::build_step_plan(id, {n, thickness, fuse});
                    EXPECT_EQ(p.validate_error(), "")
                        << id << " " << n.nx << "x" << n.ny << "x" << n.nz
                        << " fuse=" << fuse;
                    EXPECT_NO_THROW(plan::validate(p));
                } else {
                    EXPECT_THROW(
                        (void)plan::build_step_plan(id, {n, thickness, fuse}),
                        plan::FuseGeometryError)
                        << id << " " << n.nx << "x" << n.ny << "x" << n.nz
                        << " fuse=" << fuse;
                }
            }
        }
    }
}

TEST(PlanFuse, GeometryErrorNamesTheBox) {
    try {
        (void)plan::build_step_plan("mpi_bulk", {{9, 9, 2}, 1, 3});
        FAIL() << "expected FuseGeometryError";
    } catch (const plan::FuseGeometryError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fuse factor 3"), std::string::npos) << what;
        EXPECT_NE(what.find("9x9x2"), std::string::npos) << what;
    }
}

TEST(PlanFuse, OpenFacesAndVariableCoefficientsRejectFusing) {
    // The register chain fuses only periodic constant-coefficient sweeps;
    // every builder refuses the rest at any fuse factor above 1.
    for (const char* id : kIds) {
        const plan::BuildParams open{{12, 12, 12}, 2, 2, /*open_faces=*/3u};
        const plan::BuildParams var{{12, 12, 12}, 2, 2, 0u, /*var=*/true};
        for (const auto& [params, reason] :
             {std::pair{open, "periodic"},
              std::pair{var, "constant coefficients"}}) {
            try {
                (void)plan::build_step_plan(id, params);
                ADD_FAILURE() << id << ": expected FuseGeometryError";
            } catch (const plan::FuseGeometryError& e) {
                EXPECT_NE(std::string(e.what()).find(reason),
                          std::string::npos)
                    << id << ": " << e.what();
            }
            auto unfused = params;
            unfused.fuse = 1;
            EXPECT_NO_THROW((void)plan::build_step_plan(id, unfused)) << id;
        }
    }
}

TEST(PlanFuse, ValidateRejectsInconsistentTaskFuse) {
    auto p = plan::build_step_plan("single_task", {{12, 12, 12}, 1, 3});
    for (auto& t : p.tasks)
        if (t.payload.fuse == 3) t.payload.fuse = 2;  // not 1, not plan.fuse
    EXPECT_NE(p.validate_error().find("fuse"), std::string::npos);
}

TEST(PlanFuse, ValidateRejectsNonPositiveFuse) {
    auto p = tiny_plan();
    p.fuse = 0;
    EXPECT_NE(p.validate_error().find("fuse"), std::string::npos);
}
