#pragma once
/// \file scenario.hpp
/// The scenario seam (docs/SCENARIOS.md): what is being advected where.
///
/// A Scenario names one point in the workload space the solver supports —
/// the shape of the velocity field (constant, solid-body rotation in the
/// x-y plane, or a sinusoidal deformational shear) and the boundary policy
/// of each of the six domain faces (periodic wrap, Dirichlet inflow, or
/// zero-gradient outflow). The default-constructed Scenario is exactly the
/// paper's setup — constant velocity, all faces periodic — and every layer
/// below (plan builders, executor, DES, fuzzer) treats that default as the
/// bitwise-pinned fast path.
///
/// Scenarios compile to StepPlans: the plan builders read
/// `Scenario::open_faces()` and the constant/variable coefficient split
/// (plan::BuildParams) and emit BoundaryFill / KernelBoundary / variable
/// Stencil tasks as first-class IR, so the runtime executor, the DES
/// lowering, the trace exporters, and the chaos sites all see new regimes
/// with no per-consumer work.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/grid.hpp"

namespace advect::core {

class Decomp3;

/// Shape of the velocity field c(x).
enum class VelocityKind : std::uint8_t {
    Constant,           ///< c = base everywhere (the paper's case)
    SolidBodyRotation,  ///< rotation about the cube axis in the x-y plane
    Deformational,      ///< sinusoidal shear, each component driven by the
                        ///< next dimension's coordinate
};

/// Boundary policy of one domain face.
enum class BoundaryKind : std::uint8_t {
    Periodic,  ///< wrap to the opposite face (must be paired per dimension)
    Inflow,    ///< Dirichlet: halo set to the exact boundary data g
    Outflow,   ///< zero-gradient: halo copies the nearest interior plane
};

[[nodiscard]] const char* to_string(VelocityKind k);
[[nodiscard]] const char* to_string(BoundaryKind k);

/// A velocity shape bound to its base (mean) velocity. Trivially copyable
/// so device kernels and coefficient evaluators can capture it by value.
///
/// Shapes (A = amplitude, s = sin(2 pi .), unit cube):
///   Constant:           c = base
///   SolidBodyRotation:  c = (bx - A (y - 1/2), by + A (x - 1/2), bz)
///   Deformational:      c = (bx + A s(y), by + A s(z), bz + A s(x))
/// Both varying shapes are divergence-free and steady, so the per-cell
/// stencil coefficients can be built once per run (core/coeff_cache.hpp).
struct VelocityField {
    VelocityKind kind = VelocityKind::Constant;
    Velocity3 base{1.0, 1.0, 1.0};
    double amplitude = 0.0;

    /// True when every cell sees the same velocity (the single-table path).
    [[nodiscard]] bool constant() const {
        return kind == VelocityKind::Constant || amplitude == 0.0;
    }

    /// c at physical point (x, y, z).
    [[nodiscard]] Velocity3 at(double x, double y, double z) const;

    /// Advective acceleration (c . grad) c — the characteristic-curvature
    /// term of the second-order manufactured-source correction.
    [[nodiscard]] Velocity3 advective(double x, double y, double z) const;

    /// Upper bound on max_d |c_d| over the unit cube (CFL: nu <= 1/bound).
    [[nodiscard]] double max_abs() const;
};

/// Face indices of the boundary-policy array and of open-face bitmasks:
/// bit/slot 2*dim is the low face of `dim`, 2*dim + 1 the high face.
inline constexpr int kFaceXLo = 0, kFaceXHi = 1, kFaceYLo = 2, kFaceYHi = 3,
                     kFaceZLo = 4, kFaceZHi = 5;

/// The workload descriptor carried by AdvectionProblem. Default = the
/// paper's periodic constant-velocity cube.
struct Scenario {
    VelocityKind velocity = VelocityKind::Constant;
    /// Rotation rate omega (SolidBodyRotation) or shear amplitude
    /// (Deformational); 0 keeps the field constant regardless of kind.
    double amplitude = 0.0;
    std::array<BoundaryKind, 6> faces{};  // all Periodic by default

    /// True when the coefficients reduce to one constant table.
    [[nodiscard]] bool constant_velocity() const {
        return velocity == VelocityKind::Constant || amplitude == 0.0;
    }
    /// True when every face is periodic (no boundary-fill tasks at all).
    [[nodiscard]] bool periodic() const { return open_faces() == 0u; }
    /// Bitmask of non-periodic faces (bit f set iff faces[f] != Periodic).
    [[nodiscard]] unsigned open_faces() const;

    /// Empty when valid; otherwise the reason. Periodicity must be paired:
    /// a dimension is either periodic on both faces or open on both.
    [[nodiscard]] std::string validate_error() const;
};

/// Which faces of `rank`'s subdomain lie on an *open* domain face: the
/// scenario mask restricted to the faces this rank actually touches.
[[nodiscard]] unsigned local_open_faces(const Scenario& sc, const Decomp3& d,
                                        int rank);

/// A named catalog entry for the CLI (`advectctl scenarios`, `--scenario`).
struct ScenarioSpec {
    const char* name;
    const char* summary;
    Scenario scenario;
};

/// The built-in named scenarios; "periodic" is the default.
[[nodiscard]] const std::vector<ScenarioSpec>& scenario_catalog();

/// Look up a catalog entry by name. Throws std::invalid_argument (listing
/// the known names) for unknown names.
[[nodiscard]] Scenario scenario_by_name(std::string_view name);

}  // namespace advect::core
