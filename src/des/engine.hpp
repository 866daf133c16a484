#pragma once
/// \file engine.hpp
/// A small discrete-event simulator for modelling one node's schedule of
/// CPU work, GPU kernels, PCIe transfers and network messages. Tasks have a
/// fixed duration, claim units of one or more finite resources, and start
/// when all dependencies have finished and all claims can be satisfied
/// (greedy, FIFO by readiness). The makespan of an implementation's
/// per-time-step task graph — built by advect::sched from the calibrated
/// cost models — is its modelled step time; overlap falls out of which
/// resources the graph allows to be busy concurrently.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace advect::des {

using TaskId = std::int32_t;
using ResourceId = std::int32_t;

/// One executed interval, for traces and utilization reports.
struct Interval {
    TaskId task;
    double start;
    double end;
};

/// Event-driven engine. Build the graph with add_resource/add_task, then
/// call run().
class Engine {
  public:
    /// A resource with integer capacity (e.g. cpu cores = 12, nic = 1).
    ResourceId add_resource(std::string name, int capacity);

    /// A task with a fixed duration (seconds), claiming `units` of each
    /// listed resource for its whole execution. `deps` must already exist.
    struct Claim {
        ResourceId resource;
        int units;
    };
    TaskId add_task(std::string name, double duration,
                    std::vector<Claim> claims, std::vector<TaskId> deps);

    /// Execute the graph; returns the makespan. Throws std::logic_error on
    /// cyclic dependencies or unsatisfiable claims (units > capacity).
    double run();

    /// Completion time of one task (valid after run()).
    [[nodiscard]] double finish_time(TaskId t) const;
    /// Start time of one task (valid after run()).
    [[nodiscard]] double start_time(TaskId t) const;
    /// Busy-time fraction of a resource over the makespan (valid after run()).
    [[nodiscard]] double utilization(ResourceId r) const;
    /// All executed intervals sorted by start time (valid after run()).
    [[nodiscard]] const std::vector<Interval>& trace() const { return trace_; }
    [[nodiscard]] const std::string& task_name(TaskId t) const {
        return tasks_[static_cast<std::size_t>(t)].name;
    }
    /// Claims of one task (for exporters mapping tasks to resource lanes).
    [[nodiscard]] const std::vector<Claim>& task_claims(TaskId t) const {
        return tasks_[static_cast<std::size_t>(t)].claims;
    }
    /// Name a resource was registered under.
    [[nodiscard]] const std::string& resource_name(ResourceId r) const {
        return resources_[static_cast<std::size_t>(r)].name;
    }

  private:
    struct Resource {
        std::string name;
        int capacity;
        int in_use = 0;
        double busy = 0.0;
    };
    struct Task {
        std::string name;
        double duration;
        std::vector<Claim> claims;
        std::vector<TaskId> deps;
        int unmet_deps = 0;
        double ready_at = 0.0;
        double start = -1.0;
        double finish = -1.0;
        bool done = false;
        std::vector<TaskId> dependents;
    };

    [[nodiscard]] bool can_start(const Task& t) const;
    void claim(const Task& t);
    void release(const Task& t);

    std::vector<Resource> resources_;
    std::vector<Task> tasks_;
    std::vector<Interval> trace_;
    double makespan_ = 0.0;
    bool ran_ = false;
};

}  // namespace advect::des
