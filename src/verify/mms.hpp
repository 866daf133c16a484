#pragma once
/// \file mms.hpp
/// Verification problem builders (docs/VERIFICATION.md): exact-solution and
/// manufactured-solution configurations of the periodic advection cube, in
/// the V&V tradition of code verification — the solver is checked against
/// analytic truth, not merely against its own sibling implementations.
///
/// Three regimes matter:
///  * Courant-1 exactness: the standard problem's coefficients degenerate to
///    a pure shift, so the scheme is *exact* — any error beyond roundoff is
///    a code bug, not discretisation.
///  * Translated-Gaussian transport at nu below the limit: genuine
///    truncation error against the analytic translated wave.
///  * Manufactured source (core/source.hpp): a forced single Fourier mode
///    with a known exact solution, fully resolved on even the coarsest
///    grids, so observed-order estimates are asymptotic immediately.
///
/// Every builder below carries a source, open faces, or more than one live
/// stencil term, so each runs at fuse 1 only (impl::plan_job throws
/// plan::FuseGeometryError otherwise).

#include "core/problem.hpp"

namespace advect::verify {

/// Manufactured-solution problem: zero initial condition (wave.amp = 0),
/// velocity (1, 0.5, 0.25) — deliberately non-unit so no dimension
/// degenerates to an exact shift — nu at `nu_fraction` of the stability
/// limit, and an active single-mode source. The exact solution is
/// u(x, t) = amp sin(omega t) cos(2 pi (x + 2y + z)).
[[nodiscard]] core::AdvectionProblem mms_problem(int n,
                                                 double nu_fraction = 0.5);

/// Mixed verification problem: the standard Gaussian wave *plus* the active
/// manufactured source, at the given velocity/nu regime. Exercises both the
/// homogeneous scheme and the source hook in one run; used by the
/// differential fuzz harness so every implementation's source path is
/// covered by bitwise comparison.
[[nodiscard]] core::AdvectionProblem mms_mixed_problem(int n,
                                                       double nu_fraction);

/// Variable-coefficient manufactured problem (docs/SCENARIOS.md): the
/// manufactured source of mms_problem advected by a steady divergence-free
/// velocity field — solid-body rotation at amplitude 2.0 or the
/// deformational flow at amplitude 0.5, on top of the (1, 0.5, 0.25) base
/// drift. Both fields leave the single-Fourier-mode exact solution intact
/// (they are divergence-free, and the source term carries the full
/// advective correction), so the refinement ladder measures the
/// variable-coefficient scheme's own truncation error. dt is set so
/// nu * max|c| = nu_fraction.
[[nodiscard]] core::AdvectionProblem mms_variable_problem(
    int n, core::VelocityKind kind, double nu_fraction = 0.5);

/// Open-boundary transport problem: the standard translated Gaussian with
/// Dirichlet inflow on both x faces, fed by the analytic solution evaluated
/// at the wrapped global index — a pure function of (global index, level),
/// so the fill is bitwise identical across decompositions and transports.
[[nodiscard]] core::AdvectionProblem inflow_problem(int n,
                                                    double nu_fraction = 0.5);

/// Manufactured-source variant of inflow_problem (zero initial condition):
/// the inflow data is the manufactured exact solution, fully resolved on
/// every rung, so the order estimate is asymptotic immediately.
[[nodiscard]] core::AdvectionProblem inflow_mms_problem(
    int n, double nu_fraction = 0.5);

/// All six faces Dirichlet inflow around the translated Gaussian — the
/// fully open box, exercising face, edge, and corner fills together.
[[nodiscard]] core::AdvectionProblem open_box_problem(
    int n, double nu_fraction = 0.5);

}  // namespace advect::verify
