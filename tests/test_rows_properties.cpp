// Property-style sweeps over RowSpace and pack geometry with randomized
// region lists: every point visited exactly once regardless of shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/rows.hpp"
#include "core/box_partition.hpp"

namespace core = advect::core;

namespace {

/// A random box of extents 4..12 cut into a disjoint region list by
/// subtracting a random hole (the hole is the last region).
std::vector<core::Range3> random_regions(std::mt19937& rng,
                                         core::Extents3& n) {
    std::uniform_int_distribution<int> ext(4, 12);
    n = core::Extents3{ext(rng), ext(rng), ext(rng)};
    std::uniform_int_distribution<int> xs(0, n.nx - 1), ys(0, n.ny - 1),
        zs(0, n.nz - 1);
    core::Range3 hole;
    hole.lo = {xs(rng), ys(rng), zs(rng)};
    hole.hi = {std::min(n.nx, hole.lo.i + 1 + xs(rng) / 2),
               std::min(n.ny, hole.lo.j + 1 + ys(rng) / 2),
               std::min(n.nz, hole.lo.k + 1 + zs(rng) / 2)};
    const core::Range3 whole{{0, 0, 0}, {n.nx, n.ny, n.nz}};
    auto pieces = core::box_subtract(whole, hole);
    if (!hole.empty()) pieces.push_back(hole.intersect(whole));
    return pieces;
}

class RandomRegions : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomRegions, RowSpaceCoversDisjointRegionListExactly) {
    std::mt19937 rng(GetParam());
    core::Extents3 n{};
    const core::RowSpace rows(random_regions(rng, n));
    core::Field3 cover(n, 0.0);
    for (std::int64_t f = 0; f < rows.size(); ++f) {
        const auto r = rows.row(f);
        for (int i = r.xlo; i < r.xhi; ++i) cover(i, r.j, r.k) += 1.0;
    }
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i)
                ASSERT_EQ(cover(i, j, k), 1.0)
                    << "(" << i << "," << j << "," << k << ") seed "
                    << GetParam();
    EXPECT_EQ(rows.points(), n.volume());
}

// for_each_run, over any [lo, hi): the runs visit exactly rows lo..hi-1 in
// flat order, each a stretch of consecutive rows of one plane of one
// region, and each as long as it can be (a run ends only at hi, the end of
// its plane or the end of its region), so the fused chain makes one call
// per plane of a thin x-pencil.
TEST_P(RandomRegions, ForEachRunSplitsChunksIntoWholePlaneRuns) {
    std::mt19937 rng(GetParam());
    core::Extents3 n{};
    const auto pieces = random_regions(rng, n);
    const core::RowSpace rows(pieces);
    std::vector<std::int64_t> region_end;  // flat end of each region
    std::int64_t total = 0;
    for (const auto& r : pieces) {
        total += std::int64_t{r.hi.j - r.lo.j} * (r.hi.k - r.lo.k);
        region_end.push_back(total);
    }
    ASSERT_EQ(total, rows.size());

    std::uniform_int_distribution<std::int64_t> at(0, rows.size());
    for (int chunk = 0; chunk < 16; ++chunk) {
        std::int64_t lo = at(rng), hi = at(rng);
        if (lo > hi) std::swap(lo, hi);
        std::int64_t f = lo;
        rows.for_each_run(lo, hi, [&](const core::RowSpace::Row& first,
                                      int count) {
            ASSERT_GE(count, 1);
            for (int c = 0; c < count; ++c) {
                const auto want = rows.row(f + c);
                ASSERT_EQ(first.xlo, want.xlo) << "row " << f + c;
                ASSERT_EQ(first.xhi, want.xhi) << "row " << f + c;
                ASSERT_EQ(first.j + c, want.j) << "row " << f + c;
                ASSERT_EQ(first.k, want.k) << "row " << f + c;
            }
            f += count;
            const auto region = static_cast<std::size_t>(
                std::upper_bound(region_end.begin(), region_end.end(),
                                 f - 1) -
                region_end.begin());
            const bool plane_end = first.j + count == pieces[region].hi.j;
            EXPECT_TRUE(f == hi || plane_end || f == region_end[region])
                << "run ending at row " << f << " of [" << lo << ", " << hi
                << ") could go on, seed " << GetParam();
        });
        EXPECT_EQ(f, hi) << "[" << lo << ", " << hi << ") seed "
                         << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRegions,
                         ::testing::Range(0u, 24u));

}  // namespace
