#pragma once
/// \file registry.hpp
/// The nine implementations of paper §IV, A through I, as a registry for
/// tests/benches/examples to iterate. Each one is its step-plan builder
/// (src/plan/build_<id>.cpp, which carries the §IV description) run by the
/// shared harness: solve one with run_plan_solver(id, cfg) (harness.hpp) or,
/// on any transport, launch_solver (launch.hpp).

#include <span>
#include <string>

namespace advect::impl {

/// Registry entry describing one implementation.
struct Implementation {
    std::string id;             ///< short name, e.g. "mpi_nonblocking"
    std::string paper_section;  ///< e.g. "IV-C"
    std::string description;
    /// False for §IV-A/E: plan_job lays them out as one-rank jobs,
    /// whatever SolverConfig::ntasks says.
    bool uses_mpi = false;
    bool uses_gpu = false;
};

/// All nine implementations in paper order A..I.
[[nodiscard]] std::span<const Implementation> registry();

/// Lookup by id; throws std::out_of_range for unknown ids.
[[nodiscard]] const Implementation& find_implementation(const std::string& id);

}  // namespace advect::impl
