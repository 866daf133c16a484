// Tests for the halo plan geometry (serialized-dimension corner
// propagation), pack/unpack round trips, the single-task periodic fill, and
// its row-epilogue form (wrap_periodic_row, alone and inside the row
// sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/coeff_cache.hpp"
#include "core/halo.hpp"
#include "core/problem.hpp"
#include "core/rows.hpp"
#include "core/stencil.hpp"

namespace core = advect::core;

namespace {

TEST(HaloPlan, TransverseExtentsGrowByStage) {
    const auto p = core::HaloPlan::make({5, 6, 7});
    // x stage: interior j,k only.
    EXPECT_EQ(p.dims[0].send_low, (core::Range3{{0, 0, 0}, {1, 6, 7}}));
    EXPECT_EQ(p.dims[0].recv_high, (core::Range3{{5, 0, 0}, {6, 6, 7}}));
    // y stage: includes x halos.
    EXPECT_EQ(p.dims[1].send_high, (core::Range3{{-1, 5, 0}, {6, 6, 7}}));
    EXPECT_EQ(p.dims[1].recv_low, (core::Range3{{-1, -1, 0}, {6, 0, 7}}));
    // z stage: includes x and y halos.
    EXPECT_EQ(p.dims[2].send_low, (core::Range3{{-1, -1, 0}, {6, 7, 1}}));
    EXPECT_EQ(p.dims[2].recv_high, (core::Range3{{-1, -1, 7}, {6, 7, 8}}));
}

TEST(HaloPlan, MessageCounts) {
    const auto p = core::HaloPlan::make({5, 6, 7});
    EXPECT_EQ(p.message_count(0), 6u * 7u);
    EXPECT_EQ(p.message_count(1), 7u * 7u);
    EXPECT_EQ(p.message_count(2), 7u * 8u);
}

TEST(Pack, RoundTripArbitraryRegion) {
    core::Field3 f({6, 5, 4});
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> d(-5, 5);
    for (int k = -1; k <= 4; ++k)
        for (int j = -1; j <= 5; ++j)
            for (int i = -1; i <= 6; ++i) f(i, j, k) = d(rng);
    const core::Range3 region{{-1, 2, 0}, {3, 5, 3}};
    const auto buf = core::pack(f, region);
    ASSERT_EQ(buf.size(), region.volume());
    core::Field3 g({6, 5, 4}, 0.0);
    core::unpack(g, region, buf);
    for (int k = region.lo.k; k < region.hi.k; ++k)
        for (int j = region.lo.j; j < region.hi.j; ++j)
            for (int i = region.lo.i; i < region.hi.i; ++i)
                ASSERT_EQ(g(i, j, k), f(i, j, k));
}

TEST(Pack, OrderIsXFastest) {
    core::Field3 f({3, 2, 2});
    for (int k = 0; k < 2; ++k)
        for (int j = 0; j < 2; ++j)
            for (int i = 0; i < 3; ++i) f(i, j, k) = i + 10 * j + 100 * k;
    const auto buf = core::pack(f, {{0, 0, 0}, {3, 2, 2}});
    EXPECT_EQ(buf[0], 0);
    EXPECT_EQ(buf[1], 1);
    EXPECT_EQ(buf[3], 10);   // next j
    EXPECT_EQ(buf[6], 100);  // next k
}

TEST(PeriodicHalo, EveryHaloPointMatchesWrappedInterior) {
    const core::Extents3 n{4, 5, 3};
    core::Field3 f(n);
    // Unique value per interior point so wrapping is fully checked.
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i)
                f(i, j, k) = i + 10 * j + 100 * k;
    f.fill_halo(-1.0);
    core::fill_periodic_halo(f);
    for (int k = -1; k <= n.nz; ++k)
        for (int j = -1; j <= n.ny; ++j)
            for (int i = -1; i <= n.nx; ++i) {
                const int wi = core::wrap(i, n.nx);
                const int wj = core::wrap(j, n.ny);
                const int wk = core::wrap(k, n.nz);
                ASSERT_EQ(f(i, j, k), f(wi, wj, wk))
                    << "halo (" << i << "," << j << "," << k << ")";
            }
}

TEST(PeriodicHalo, CornersRequireAllThreeStages) {
    // After only the x and y stages, the x-y edge halos are filled but the
    // z-corner halos are not; the z stage completes them.
    const core::Extents3 n{3, 3, 3};
    core::Field3 f(n);
    for (int k = 0; k < 3; ++k)
        for (int j = 0; j < 3; ++j)
            for (int i = 0; i < 3; ++i) f(i, j, k) = 1 + i + 3 * j + 9 * k;
    f.fill_halo(0.0);
    core::fill_periodic_halo_dim(f, 0);
    core::fill_periodic_halo_dim(f, 1);
    EXPECT_EQ(f(-1, -1, 0), f(2, 2, 0));  // xy edge done
    EXPECT_EQ(f(-1, -1, -1), 0.0);        // xyz corner not yet
    core::fill_periodic_halo_dim(f, 2);
    EXPECT_EQ(f(-1, -1, -1), f(2, 2, 2));  // corner complete
}

TEST(PeriodicHalo, StencilAfterFillMatchesAnalyticShift) {
    // One unit-Courant step through the periodic fill is an exact diagonal
    // shift with wraparound.
    const core::Extents3 n{4, 4, 4};
    core::Field3 f(n), out(n);
    for (int k = 0; k < 4; ++k)
        for (int j = 0; j < 4; ++j)
            for (int i = 0; i < 4; ++i) f(i, j, k) = i + 4 * j + 16 * k;
    core::fill_periodic_halo(f);
    const auto a = core::tensor_product_coeffs({1, 1, 1}, 1.0);
    core::apply_stencil(a, f, out);
    for (int k = 0; k < 4; ++k)
        for (int j = 0; j < 4; ++j)
            for (int i = 0; i < 4; ++i)
                ASSERT_EQ(out(i, j, k), f(core::wrap(i - 1, 4),
                                          core::wrap(j - 1, 4),
                                          core::wrap(k - 1, 4)));
}

// ---------------------------------------------------------------------------
// Step 1 as a row epilogue: wrapping each written row right after it is
// written -- in any order, under any chunking of the rows -- must leave
// exactly the halo the staged periodic fill produces.

using Rng = std::mt19937;

constexpr double kPoison = std::numeric_limits<double>::quiet_NaN();

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Extents of at least `h` per dimension; a third of the dimensions are
/// exactly `h`, where every point has both an x/y/z image below and above.
core::Extents3 extents_at_least(Rng& rng, int h) {
    std::uniform_int_distribution<int> extra(0, 6);
    const auto draw = [&] { return rng() % 3 == 0 ? h : h + extra(rng); };
    const int nx = draw();
    const int ny = draw();
    const int nz = draw();
    return {nx, ny, nz};
}

void fill_interior_random(core::Field3& f, Rng& rng) {
    std::uniform_real_distribution<double> v(-1.0, 1.0);
    const auto n = f.extents();
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) f(i, j, k) = v(rng);
}

/// `f` holds fill_periodic_halo of its own interior at every padded point.
void expect_periodic_images(const core::Field3& f) {
    core::Field3 want = f;
    core::fill_periodic_halo(want);
    const auto n = f.extents();
    const int h = f.halo_width();
    for (int k = -h; k < n.nz + h; ++k)
        for (int j = -h; j < n.ny + h; ++j)
            for (int i = -h; i < n.nx + h; ++i)
                ASSERT_TRUE(same_bits(f(i, j, k), want(i, j, k)))
                    << "(" << i << "," << j << "," << k << ") of " << n.nx
                    << "x" << n.ny << "x" << n.nz << " h=" << h;
}

TEST(HaloImages, WholeRowsInAnyOrderMatchThePeriodicFill) {
    Rng rng(1601);
    for (int trial = 0; trial < 80; ++trial) {
        const int h = 1 + trial % 4;
        const auto n = extents_at_least(rng, h);
        core::Field3 src(n, h);
        fill_interior_random(src, rng);
        std::vector<std::array<int, 2>> rows;  // j, k
        for (int k = 0; k < n.nz; ++k)
            for (int j = 0; j < n.ny; ++j) rows.push_back({j, k});
        std::shuffle(rows.begin(), rows.end(), rng);
        core::Field3 f(n, h, kPoison);
        for (const auto& [j, k] : rows) {
            std::copy_n(src.ptr(0, j, k), n.nx, f.ptr(0, j, k));
            core::wrap_periodic_row(f, j, k);
        }
        ASSERT_TRUE(f.interior_equals(src));
        expect_periodic_images(f);
    }
}

TEST(HaloImages, RowSweepEpilogueUnderAnyChunkingMatchesThePeriodicFill) {
    // apply_stencil_rows / apply_stencil_var_rows with a source and wrap, as
    // the periodic single-task sweep calls them, over random row chunks in
    // random order: the interior must equal the plain sweep plus add_source
    // and the halo its periodic images.
    Rng rng(1602);
    auto problem = core::AdvectionProblem::standard(8);
    problem.source.amp = 1.0;
    const core::SourceField sf = core::make_source_field(problem);
    const core::FusedSource fsrc{sf, {3, 1, 2}, 5};
    const auto dense = core::tensor_product_coeffs({1.0, 0.5, 0.25}, 0.4);
    auto rotating = core::AdvectionProblem::standard(8);
    rotating.scenario = core::scenario_by_name("rotating");
    rotating.nu = 0.5 / rotating.velocity_field().max_abs();
    for (int trial = 0; trial < 48; ++trial) {
        const int h = 1 + trial % 4;
        const bool var = trial % 2 == 1;
        const auto n = extents_at_least(rng, h);
        core::Field3 in(n, h);
        fill_interior_random(in, rng);
        core::fill_periodic_halo(in);
        core::CoeffCache cache;
        if (var) cache = core::CoeffCache(rotating.coeff_field(), n, {0, 0, 0});
        const core::RowSpace rows({in.interior()});
        const auto sweep = [&](core::Field3& out, std::int64_t lo,
                               std::int64_t hi, const core::FusedSource* s,
                               bool wrap) {
            if (var)
                core::apply_stencil_var_rows(cache, in, out, rows, lo, hi, s,
                                             wrap);
            else
                core::apply_stencil_rows(dense, in, out, rows, lo, hi, s,
                                         wrap);
        };
        core::Field3 want(n, h, kPoison);
        sweep(want, 0, rows.size(), nullptr, false);
        core::add_source(want, sf, fsrc.origin, want.interior(),
                         fsrc.base_level);

        std::vector<std::array<std::int64_t, 2>> chunks;
        for (std::int64_t lo = 0; lo < rows.size();) {
            const std::int64_t hi =
                std::min<std::int64_t>(rows.size(), lo + 1 + rng() % 7);
            chunks.push_back({lo, hi});
            lo = hi;
        }
        std::shuffle(chunks.begin(), chunks.end(), rng);
        core::Field3 out(n, h, kPoison);
        for (const auto& [lo, hi] : chunks) sweep(out, lo, hi, &fsrc, true);
        ASSERT_TRUE(out.interior_equals(want)) << "var=" << var;
        expect_periodic_images(out);
    }
}

}  // namespace
