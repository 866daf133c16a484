#pragma once
/// \file fuzz.hpp
/// Seeded differential fuzzing over the full configuration space
/// (docs/VERIFICATION.md "Differential fuzzing"): one 64-bit seed expands
/// deterministically into a complete configuration — geometry, velocity/nu,
/// rank/thread counts, GPU block and box shapes, fuse factor, manufactured
/// source on/off, transport, chaos scenario, schedule-exploration seed —
/// and `run_case` checks every oracle that applies:
///
///  * all nine implementations bitwise-equal to the single-threaded
///    reference (infeasible combinations are skipped, never silently:
///    the outcome counts them);
///  * conservation of the periodic integral (source-free cases; the 27
///    coefficients sum to exactly 1, so drift is bounded by roundoff);
///  * the discrete maximum principle whenever all 27 coefficients are
///    non-negative (Courant-1 cases: the scheme degenerates to a shift);
///  * socket- and tcp-transport runs (forked ranks on the mesh transport,
///    in the drawn progress mode) bitwise-equal to in-process runs;
///  * chaos runs (message drops + retransmission, flaky kernel retries,
///    jitter/stragglers) bitwise-equal to the fault-free state;
///  * seeded schedule permutations bitwise-equal to plan-order issue.
///
/// Any failure carries a standalone single-line reproducer
/// (`advectctl verify fuzz --seed N`), so a nightly finding replays locally
/// from nothing but the printed line.

#include <cstdint>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/scenario.hpp"

namespace advect::verify {

/// Which boundary policy a fuzz case applies (docs/SCENARIOS.md). A quarter
/// of the non-Courant-1 cases leave the periodic default; the open policies
/// exercise the BoundaryFill / KernelBoundary plan tasks across all nine
/// implementations.
enum class FuzzBoundary {
    Periodic,   ///< the historical default (no boundary tasks in the plan)
    InflowX,    ///< Dirichlet inflow on both x faces
    OpenBox,    ///< all six faces Dirichlet inflow
    OutflowX,   ///< inflow on x-lo, zero-gradient outflow on x-hi
};

/// A fully-expanded fuzz configuration. Everything is derived from `seed`
/// by `sample_case`; the struct exists so tests and the CLI can inspect or
/// pin individual fields.
struct FuzzCase {
    std::uint64_t seed = 0;
    int n = 12;
    int steps = 4;
    int ntasks = 2;
    int threads = 2;
    int block_x = 8;
    int block_y = 4;
    int box_thickness = 1;
    int fuse = 1;  ///< > 1 only on Courant-1 cases (the register chain)
    int tasks_per_gpu = 1;
    core::Velocity3 velocity{1.0, 1.0, 1.0};
    double nu_fraction = 1.0;  ///< of the stability limit
    bool courant_one = false;  ///< exact-shift regime (max-principle oracle)
    bool mms = false;          ///< manufactured source active (mixed mode)
    /// Velocity-field kind; never varied on Courant-1 cases.
    core::VelocityKind vel_kind = core::VelocityKind::Constant;
    double vel_amplitude = 0.0;  ///< perturbation amplitude for var kinds
    FuzzBoundary boundary = FuzzBoundary::Periodic;
    bool socket = false;       ///< also run the socket transport
    bool tcp = false;          ///< also run the tcp transport (stage 2)
    bool polled = false;       ///< forked legs with the progress engine off
    std::string chaos_scenario;  ///< empty = no chaos leg
    double chaos_x = 0.0;        ///< scenario amplitude/probability
    std::uint64_t chaos_seed = 0;
    unsigned schedule_seed = 0;  ///< 0 = plan-order issue
};

/// Deterministically expand a seed into a configuration. Mostly-feasible by
/// construction (grid, ranks, and fuse are drawn from ranges that usually
/// coexist); the residual infeasible corners are skipped at run time.
[[nodiscard]] FuzzCase sample_case(std::uint64_t seed);

/// The standalone single-line reproducer for a case.
[[nodiscard]] std::string reproducer(const FuzzCase& c);

/// One-line human-readable description of the expanded configuration.
[[nodiscard]] std::string describe(const FuzzCase& c);

/// Result of running one case: every oracle that fired, and every check it
/// performed (so "zero failures" is distinguishable from "nothing ran").
struct FuzzOutcome {
    FuzzCase fuzz_case;
    int checks = 0;   ///< oracle comparisons performed
    int skipped = 0;  ///< implementations skipped as geometrically infeasible
    std::vector<std::string> failures;
    [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Expand and run one seed through every applicable oracle.
[[nodiscard]] FuzzOutcome run_case(const FuzzCase& c);

/// Aggregate of a campaign over many seeds.
struct FuzzSummary {
    int cases = 0;
    int checks = 0;
    int skipped = 0;
    std::vector<FuzzOutcome> failures;
    [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Run seeds [first, first + count). When `log` is true, prints one progress
/// line per case and, for any failure, the failing oracles plus the
/// reproducer line to stdout.
[[nodiscard]] FuzzSummary run_campaign(std::uint64_t first, int count,
                                       bool log = false);

}  // namespace advect::verify
