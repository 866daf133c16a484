#pragma once
/// \file boundary.hpp
/// Open-boundary halo fill (docs/SCENARIOS.md). Open faces keep the
/// periodic exchange *message structure* untouched — every rank still
/// sends/receives its six staged slabs — and overwrite the affected halo
/// slabs immediately after each dimension's unpack, using the same staged
/// transverse extents as HaloPlan::make so edge and corner ghosts stay
/// consistent across decompositions (the y-stage overwrite covers the x
/// halos filled one stage earlier, exactly like periodic corner
/// propagation).
///
///   Inflow  — Dirichlet: the halo takes the boundary data g, a pure
///             function of (wrapped global index, time level). Purity is
///             the bitwise contract: any rank or transport evaluating a
///             boundary point reproduces the same bits.
///   Outflow — zero gradient: the halo copies the nearest interior plane
///             of its own dimension (transverse coordinates unchanged, so
///             previously staged halo columns are propagated, not
///             invented).

#include <array>

#include "core/field.hpp"
#include "core/initial.hpp"
#include "core/scenario.hpp"
#include "core/source.hpp"

namespace advect::core {

/// Dirichlet boundary data: the exact solution of the periodic
/// constant-velocity problem — translated Gaussian plus manufactured field
/// — evaluated at the wrapped global index and the step's base time level.
/// For the inflow verification ladder this makes the boundary data exact,
/// so the analytic error norms of the periodic problem carry over
/// unchanged. Trivially copyable for by-value capture in device kernels.
struct BoundaryField {
    GaussianWave wave{};
    Velocity3 velocity{};  ///< base velocity translating the data
    SourceTerm source{};
    int n = 1;             ///< global points per dimension
    double delta = 1.0;
    double dt = 0.0;

    /// g at global index (gi, gj, gk), time level `level`.
    [[nodiscard]] double g(int gi, int gj, int gk, int level) const;
};

/// Overwrite the open halos of dimension `dim` (the field's whole halo
/// width; jobs with open faces never fuse, so that is one layer),
/// immediately after that dimension's periodic exchange or fill. `open` is
/// the *local* open-face mask (bit 2*dim = low face, bit 2*dim+1 = high
/// face; see Scenario::open_faces restricted by local_open_faces); `faces`
/// gives each face's kind; `origin` is the local block's global origin and
/// `level` the base time level of the step.
void fill_boundary_dim(FieldView f, int dim, unsigned open,
                       const std::array<BoundaryKind, 6>& faces,
                       const BoundaryField& bf, const Index3& origin,
                       int level);

/// Doubles written by fill_boundary_dim for plan accounting: the open
/// recv-slab volumes of stage `dim` at ghost depth `depth` for extents `n`.
[[nodiscard]] std::size_t boundary_fill_count(Extents3 n, int dim, int depth,
                                              unsigned open);

}  // namespace advect::core
