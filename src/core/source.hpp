#pragma once
/// \file source.hpp
/// Manufactured-solution source term for verification (docs/VERIFICATION.md).
///
/// The method of manufactured solutions (MMS) picks a smooth field
///     u_m(x, t) = A sin(omega t) cos(phi),   phi = 2 pi (kx x + ky y + kz z),
/// and adds the forcing S = du_m/dt + c . grad u_m to the advection equation
/// so that u_m becomes an exact particular solution. Because u_m(x, 0) = 0
/// the Gaussian initial condition is unchanged, and by linearity the exact
/// total solution is the translated Gaussian *plus* u_m — so a single run
/// verifies both the homogeneous scheme and the forcing discretisation.
///
/// Discretely, each Lax-Wendroff step from time level t_n adds the
/// second-order source increment
///     Q(x, t_n) = dt S(x, t_n) + (dt^2 / 2) (S_t - c . grad S)(x, t_n),
/// whose correction term collapses (the cross terms cancel) to
///     (S_t - c . grad S) = A sin(omega t) cos(phi) (kappa^2 - omega^2),
/// with kappa = 2 pi (k . c). This keeps the combined scheme second order:
/// the Duhamel integral of S along the characteristic is matched to O(dt^3)
/// per step.
///
/// Bitwise contract: every code path (reference loop, row epilogue,
/// simulated-GPU kernels) obtains Q through
/// `SourceField::q(gi, gj, gk, level)`, which wraps the *global* indices
/// periodically before forming physical coordinates, so a point's increment
/// is the same double whichever rank or path evaluates it — the bitwise
/// cross-implementation equality the rest of the repo is built on. A job
/// with an active source never fuses time steps (impl::plan_job).

#include <cstdint>

#include "core/field.hpp"
#include "core/scenario.hpp"

namespace advect::core {

/// Parameters of the manufactured solution u_m. `amp == 0` (the default)
/// disables the source entirely; every hook is a no-op in that case.
struct SourceTerm {
    double amp = 0.0;   ///< A; 0 disables the manufactured source
    int kx = 1;         ///< integer wavenumbers (periodic unit cube)
    int ky = 1;
    int kz = 1;
    double omega = 6.283185307179586476925287;  ///< temporal frequency (2 pi)

    [[nodiscard]] bool active() const { return amp != 0.0; }

    /// u_m(x, t) = A sin(omega t) cos(2 pi (kx x + ky y + kz z)).
    [[nodiscard]] double manufactured(double x, double y, double z,
                                      double t) const;
};

/// A SourceTerm bound to a discretisation: everything needed to evaluate the
/// per-step increment Q at a *global* grid index and time level. Small and
/// trivially copyable so simulated-GPU kernels can capture it by value.
struct SourceField {
    SourceTerm term{};
    /// Velocity field of the scenario. For variable velocity the forcing
    /// uses the local kappa(x) = 2 pi k . c(x) and the second-order
    /// correction gains the characteristic-curvature term
    /// 2 pi k . (c . grad) c sin(phi); both extra paths are gated on
    /// `vel.constant()` so the constant case stays bitwise unchanged.
    VelocityField vel{};
    int n = 1;          ///< global points per dimension
    double delta = 1.0; ///< grid spacing
    double dt = 0.0;    ///< time step

    [[nodiscard]] bool active() const { return term.active(); }

    /// Q at global index (gi, gj, gk) — wrapped into [0, n) first, so a
    /// periodic image's coordinates reproduce the owning point's bits — for
    /// the step that advances time level `level` to `level + 1`.
    [[nodiscard]] double q(int gi, int gj, int gk, int level) const;
};

/// Manufactured-source context of one step's sweep: the bound source field,
/// the global origin of the local field's (0,0,0), and the time level the
/// step starts from. The row epilogue (core::detail::finish_row) adds
/// Q(global point, base_level) to every row it finishes. Trivially copyable:
/// a simulated-device kernel captures it by value at enqueue time.
struct FusedSource {
    SourceField field{};
    Index3 origin{};
    int base_level = 0;
};

/// dst[ly * stride + x] += q(gx0 + x, gy0 + ly, gz, level) over an
/// nx-by-ny plane of rows: the raw-slab form used by the row epilogue and
/// the simulated-GPU kernels, and the building block of add_source.
void add_source_plane(double* dst, std::ptrdiff_t stride, int nx, int ny,
                      int gx0, int gy0, int gz, int level,
                      const SourceField& sf);

/// f(p) += Q(origin + p, level) over region `r` of a local field whose
/// global origin is `origin`.
void add_source(Field3& f, const SourceField& sf, const Index3& origin,
                const Range3& r, int level);

}  // namespace advect::core
