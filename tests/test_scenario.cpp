/// \file test_scenario.cpp
/// Unit tests for the scenario seam (docs/SCENARIOS.md): the velocity-field
/// shapes and their advective correction, scenario validation and the named
/// catalog, the per-cell coefficient evaluator and its compacted per-row
/// cache (constant case bitwise-identical to the single-table path,
/// compaction counts by shape), and the open-boundary halo fill on thin
/// geometries — faces, edges and corners through the staged per-dimension
/// ordering.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/boundary.hpp"
#include "core/coeff_cache.hpp"
#include "core/decomposition.hpp"
#include "core/halo.hpp"
#include "core/problem.hpp"
#include "core/scenario.hpp"
#include "verify/mms.hpp"

namespace core = advect::core;
namespace verify = advect::verify;

namespace {

// ---------------------------------------------------------------------------
// VelocityField shapes.

TEST(VelocityField, ConstantIsBaseEverywhere) {
    const core::VelocityField v{core::VelocityKind::Constant,
                                {1.0, 0.5, 0.25}, 0.0};
    EXPECT_TRUE(v.constant());
    const auto c = v.at(0.3, 0.7, 0.1);
    EXPECT_EQ(c.cx, 1.0);
    EXPECT_EQ(c.cy, 0.5);
    EXPECT_EQ(c.cz, 0.25);
    EXPECT_EQ(v.max_abs(), 1.0);
    const auto a = v.advective(0.3, 0.7, 0.1);
    EXPECT_EQ(a.cx, 0.0);
    EXPECT_EQ(a.cy, 0.0);
    EXPECT_EQ(a.cz, 0.0);
}

TEST(VelocityField, SolidBodyRotationShape) {
    const core::VelocityField v{core::VelocityKind::SolidBodyRotation,
                                {1.0, 0.5, 0.25}, 2.0};
    EXPECT_FALSE(v.constant());
    // At the cube centre the perturbation vanishes.
    const auto c0 = v.at(0.5, 0.5, 0.9);
    EXPECT_EQ(c0.cx, 1.0);
    EXPECT_EQ(c0.cy, 0.5);
    EXPECT_EQ(c0.cz, 0.25);
    // c = (bx - A (y - 1/2), by + A (x - 1/2), bz).
    const auto c = v.at(0.75, 0.25, 0.0);
    EXPECT_DOUBLE_EQ(c.cx, 1.0 - 2.0 * (0.25 - 0.5));
    EXPECT_DOUBLE_EQ(c.cy, 0.5 + 2.0 * (0.75 - 0.5));
    EXPECT_EQ(c.cz, 0.25);
    // The bound covers the corner speed.
    EXPECT_GE(v.max_abs(), std::abs(v.at(0.0, 1.0, 0.0).cx));
    // Divergence-free: d(cx)/dx + d(cy)/dy = 0 identically by construction
    // (each component is independent of its own coordinate).
    const double h = 1e-6;
    const double div =
        (v.at(0.3 + h, 0.7, 0.1).cx - v.at(0.3 - h, 0.7, 0.1).cx +
         v.at(0.3, 0.7 + h, 0.1).cy - v.at(0.3, 0.7 - h, 0.1).cy) /
        (2.0 * h);
    EXPECT_NEAR(div, 0.0, 1e-9);
}

TEST(VelocityField, DeformationalShapeAndAdvective) {
    const core::VelocityField v{core::VelocityKind::Deformational,
                                {1.0, 0.5, 0.25}, 0.5};
    const double kTwoPi = 8.0 * std::atan(1.0);
    const auto c = v.at(0.1, 0.2, 0.3);
    EXPECT_DOUBLE_EQ(c.cx, 1.0 + 0.5 * std::sin(kTwoPi * 0.2));
    EXPECT_DOUBLE_EQ(c.cy, 0.5 + 0.5 * std::sin(kTwoPi * 0.3));
    EXPECT_DOUBLE_EQ(c.cz, 0.25 + 0.5 * std::sin(kTwoPi * 0.1));
    EXPECT_DOUBLE_EQ(v.max_abs(), 1.0 + 0.5);
    // Advective term (c . grad) c against a central-difference probe.
    const double h = 1e-6;
    const auto a = v.advective(0.1, 0.2, 0.3);
    const double ax_fd =
        c.cy * (v.at(0.1, 0.2 + h, 0.3).cx - v.at(0.1, 0.2 - h, 0.3).cx) /
        (2.0 * h);
    EXPECT_NEAR(a.cx, ax_fd, 1e-5);
}

// ---------------------------------------------------------------------------
// Scenario validation, the catalog, and local face restriction.

TEST(Scenario, DefaultIsPeriodicConstant) {
    const core::Scenario s;
    EXPECT_TRUE(s.constant_velocity());
    EXPECT_TRUE(s.periodic());
    EXPECT_EQ(s.open_faces(), 0u);
    EXPECT_TRUE(s.validate_error().empty());
}

TEST(Scenario, UnpairedPeriodicFaceIsInvalid) {
    core::Scenario s;
    s.faces[core::kFaceYLo] = core::BoundaryKind::Inflow;
    const std::string err = s.validate_error();
    EXPECT_NE(err.find("dimension 1"), std::string::npos) << err;
    s.faces[core::kFaceYHi] = core::BoundaryKind::Outflow;
    EXPECT_TRUE(s.validate_error().empty());
    EXPECT_EQ(s.open_faces(), (1u << core::kFaceYLo) | (1u << core::kFaceYHi));
}

TEST(Scenario, CatalogNamesResolve) {
    const auto& catalog = core::scenario_catalog();
    ASSERT_GE(catalog.size(), 2u);
    EXPECT_STREQ(catalog.front().name, "periodic");
    for (const auto& spec : catalog) {
        EXPECT_TRUE(spec.scenario.validate_error().empty()) << spec.name;
        const core::Scenario byname = core::scenario_by_name(spec.name);
        EXPECT_EQ(byname.velocity, spec.scenario.velocity) << spec.name;
        EXPECT_EQ(byname.open_faces(), spec.scenario.open_faces())
            << spec.name;
    }
    try {
        (void)core::scenario_by_name("no-such-scenario");
        FAIL() << "unknown scenario name must throw";
    } catch (const std::invalid_argument& e) {
        // The error must list the known names so the CLI message is usable.
        EXPECT_NE(std::string(e.what()).find("periodic"), std::string::npos);
    }
}

TEST(Scenario, LocalOpenFacesRestrictsToDomainBoundaryRanks) {
    core::Scenario s;
    s.faces[core::kFaceXLo] = core::BoundaryKind::Inflow;
    s.faces[core::kFaceXHi] = core::BoundaryKind::Inflow;
    const auto d = core::make_decomposition({12, 12, 12}, 4);
    unsigned seen = 0;
    for (int r = 0; r < d.nranks(); ++r) {
        const unsigned m = core::local_open_faces(s, d, r);
        // Only x faces can ever be open, and only on ranks touching them.
        EXPECT_EQ(m & ~((1u << core::kFaceXLo) | (1u << core::kFaceXHi)), 0u);
        seen |= m;
    }
    EXPECT_EQ(seen, s.open_faces());  // both domain faces owned by someone
}

// ---------------------------------------------------------------------------
// CoeffField / CoeffCache.

TEST(CoeffCache, ConstantCaseReproducesSingleTableBitwise) {
    const auto p = verify::mms_problem(12);
    const core::StencilCoeffs table = p.coeffs();
    const core::CoeffField cf = p.coeff_field();
    const core::StencilCoeffs var = cf.at(3, 5, 7);
    for (int t = 0; t < 27; ++t) EXPECT_EQ(table.a[t], var.a[t]) << t;
}

TEST(CoeffCache, CompactionCountsByShape) {
    const core::Extents3 local{8, 6, 5};
    const auto constant = verify::mms_problem(8);
    EXPECT_EQ(core::CoeffCache(constant.coeff_field(), local, {0, 0, 0})
                  .distinct_rows(),
              1u);
    const auto sbr = verify::mms_variable_problem(
        8, core::VelocityKind::SolidBodyRotation);
    // Solid-body rotation varies with (x, y): rows repeat across k.
    EXPECT_EQ(
        core::CoeffCache(sbr.coeff_field(), local, {0, 0, 0}).distinct_rows(),
        6u);
    const auto def =
        verify::mms_variable_problem(8, core::VelocityKind::Deformational);
    EXPECT_EQ(
        core::CoeffCache(def.coeff_field(), local, {0, 0, 0}).distinct_rows(),
        6u * 5u);
}

TEST(CoeffCache, RowsMatchEvaluatorBitwiseIncludingOrigin) {
    const auto p = verify::mms_variable_problem(
        10, core::VelocityKind::Deformational);
    const core::CoeffField cf = p.coeff_field();
    const core::Extents3 local{4, 3, 3};
    const core::Index3 origin{2, 4, 6};
    const core::CoeffCache cache(cf, local, origin);
    EXPECT_EQ(cache.nx(), 4);
    // Struct-of-arrays rows: term t of cell i at row[t * nx + i].
    for (int k = 0; k < local.nz; ++k)
        for (int j = 0; j < local.ny; ++j) {
            const double* row = cache.row(j, k);
            for (int i = 0; i < local.nx; ++i) {
                const core::StencilCoeffs want =
                    cf.at(origin.i + i, origin.j + j, origin.k + k);
                for (int t = 0; t < 27; ++t)
                    EXPECT_EQ(row[t * local.nx + i], want.a[t])
                        << i << "," << j << "," << k << " t=" << t;
            }
        }
}

// Amplitude 0 through the variable path equals the constant path bitwise in
// a full reference run (the compiled guarantee behind treating amp = 0 as
// constant in Scenario::constant_velocity).
TEST(CoeffCache, ZeroAmplitudeRunsMatchConstantBitwise) {
    auto a = verify::mms_mixed_problem(12, 0.5);
    a.scenario.velocity = core::VelocityKind::SolidBodyRotation;
    a.scenario.amplitude = 0.0;
    auto b = a;
    b.scenario = core::Scenario{};
    const auto fa = core::run_reference(a, 4);
    const auto fb = core::run_reference(b, 4);
    EXPECT_TRUE(fa.interior_equals(fb));
}

// ---------------------------------------------------------------------------
// Open-boundary halo fill: faces, edges, corners, thin geometries.

core::BoundaryField test_boundary_field() {
    auto p = verify::inflow_mms_problem(12);
    p.wave.amp = 1.0;  // non-trivial Gaussian too
    return core::make_boundary_field(p);
}

/// Apply the per-dimension periodic fill + boundary overwrite exactly as
/// the executor stages it.
void fill_all(core::Field3& f, unsigned open,
              const std::array<core::BoundaryKind, 6>& faces,
              const core::BoundaryField& bf, const core::Index3& origin,
              int level) {
    for (int d = 0; d < 3; ++d) {
        core::fill_periodic_halo_dim(f, d);
        core::fill_boundary_dim(f, d, open, faces, bf, origin, level);
    }
}

TEST(BoundaryFill, OpenBoxFillsFacesEdgesAndCornersWithG) {
    const core::BoundaryField bf = test_boundary_field();
    std::array<core::BoundaryKind, 6> faces;
    faces.fill(core::BoundaryKind::Inflow);
    const core::Extents3 n{5, 4, 3};
    const core::Index3 origin{1, 2, 3};
    const int level = 2;
    core::Field3 f(n, 2);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i)
                f(i, j, k) = static_cast<double>(i + 10 * j + 100 * k);
    fill_all(f, 0x3fu, faces, bf, origin, level);
    // Every ghost cell — faces, edges and corners at every depth — holds
    // the pure boundary function of its global index: the staged overwrite
    // (x, then y covering x halos, then z covering both) composes to g
    // everywhere outside the interior.
    const int h = f.halo_width();
    for (int k = -h; k < n.nz + h; ++k)
        for (int j = -h; j < n.ny + h; ++j)
            for (int i = -h; i < n.nx + h; ++i) {
                const bool interior = i >= 0 && i < n.nx && j >= 0 &&
                                      j < n.ny && k >= 0 && k < n.nz;
                if (interior) continue;
                EXPECT_EQ(f(i, j, k), bf.g(origin.i + i, origin.j + j,
                                           origin.k + k, level))
                    << i << "," << j << "," << k;
            }
}

TEST(BoundaryFill, MixedInflowOutflowOnThinGeometry) {
    const core::BoundaryField bf = test_boundary_field();
    // Thin in x: two interior points against a halo of width 2, so the
    // outflow ghosts at both depths copy the same nearest interior plane.
    const core::Extents3 n{2, 3, 4};
    const core::Index3 origin{0, 0, 0};
    std::array<core::BoundaryKind, 6> faces{};  // periodic y, z
    faces[core::kFaceXLo] = core::BoundaryKind::Inflow;
    faces[core::kFaceXHi] = core::BoundaryKind::Outflow;
    const unsigned open =
        (1u << core::kFaceXLo) | (1u << core::kFaceXHi);
    core::Field3 f(n, 2);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i)
                f(i, j, k) = static_cast<double>(1 + i + 10 * j + 100 * k);
    fill_all(f, open, faces, bf, origin, /*level=*/1);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j) {
            // Inflow ghosts at depths 1 and 2 evaluate g.
            EXPECT_EQ(f(-1, j, k), bf.g(-1, j, k, 1));
            EXPECT_EQ(f(-2, j, k), bf.g(-2, j, k, 1));
            // Outflow ghosts copy the nearest interior plane i = nx-1.
            EXPECT_EQ(f(n.nx, j, k), f(n.nx - 1, j, k));
            EXPECT_EQ(f(n.nx + 1, j, k), f(n.nx - 1, j, k));
        }
    // Periodic dimensions stay periodic: the y halo wraps interior rows,
    // and its slab covers the x halo columns (corner/edge propagation), so
    // the corner ghost equals the wrapped x-halo value.
    EXPECT_EQ(f(0, -1, 0), f(0, n.ny - 1, 0));
    EXPECT_EQ(f(-1, -1, 0), f(-1, n.ny - 1, 0));
    // z staging covers both: a full corner wraps to the filled (x, y) ghost.
    EXPECT_EQ(f(-1, -1, -1), f(-1, -1, n.nz - 1));
}

TEST(BoundaryFill, FillCountMatchesSlabVolumes) {
    const core::Extents3 n{5, 4, 3};
    const unsigned open = (1u << core::kFaceXLo) | (1u << core::kFaceXHi);
    const auto plan = core::HaloPlan::make(n, 2);
    EXPECT_EQ(core::boundary_fill_count(n, 0, 2, open),
              plan.dims[0].recv_low.volume() +
                  plan.dims[0].recv_high.volume());
    // Only one face open: half the count.
    EXPECT_EQ(core::boundary_fill_count(n, 0, 2, 1u << core::kFaceXLo),
              plan.dims[0].recv_low.volume());
    // Closed dimension: nothing to fill.
    EXPECT_EQ(core::boundary_fill_count(n, 1, 2, open), 0u);
}

}  // namespace
