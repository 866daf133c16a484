// Tests for Field3 storage/indexing, Range3 geometry, and wrap().

#include <gtest/gtest.h>

#include <type_traits>

#include "core/field.hpp"

namespace core = advect::core;

namespace {

TEST(Wrap, Basics) {
    EXPECT_EQ(core::wrap(0, 5), 0);
    EXPECT_EQ(core::wrap(4, 5), 4);
    EXPECT_EQ(core::wrap(5, 5), 0);
    EXPECT_EQ(core::wrap(-1, 5), 4);
    EXPECT_EQ(core::wrap(-5, 5), 0);
    EXPECT_EQ(core::wrap(13, 5), 3);
    EXPECT_EQ(core::wrap(-13, 5), 2);
}

TEST(Range3, VolumeAndEmpty) {
    core::Range3 r{{0, 0, 0}, {4, 5, 6}};
    EXPECT_EQ(r.volume(), 120u);
    EXPECT_FALSE(r.empty());
    core::Range3 e{{2, 0, 0}, {2, 5, 6}};
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.volume(), 0u);
    EXPECT_EQ((core::Range3{{3, 3, 3}, {1, 9, 9}}).volume(), 0u);
}

TEST(Range3, Contains) {
    core::Range3 r{{-1, 0, 2}, {3, 4, 5}};
    EXPECT_TRUE(r.contains({-1, 0, 2}));
    EXPECT_TRUE(r.contains({2, 3, 4}));
    EXPECT_FALSE(r.contains({3, 3, 4}));
    EXPECT_FALSE(r.contains({0, 0, 5}));
    EXPECT_FALSE(r.contains({-2, 0, 2}));
}

TEST(Range3, Intersect) {
    core::Range3 a{{0, 0, 0}, {10, 10, 10}};
    core::Range3 b{{5, -3, 8}, {15, 4, 20}};
    const auto c = a.intersect(b);
    EXPECT_EQ(c, (core::Range3{{5, 0, 8}, {10, 4, 10}}));
    const auto d = a.intersect(core::Range3{{12, 0, 0}, {15, 1, 1}});
    EXPECT_TRUE(d.empty());
}

TEST(Field3, StorageIncludesHalo) {
    core::Field3 f({4, 5, 6});
    EXPECT_EQ(f.extents(), (core::Extents3{4, 5, 6}));
    EXPECT_EQ(f.interior_volume(), 120u);
    EXPECT_EQ(f.storage_size(), 6u * 7u * 8u);
}

TEST(Field3, DistinctAddressesPerIndex) {
    core::Field3 f({3, 4, 5});
    // Write a unique value at every valid index (halos included) and read
    // them all back: catches any stride/offset aliasing.
    double v = 1.0;
    for (int k = -1; k <= 5; ++k)
        for (int j = -1; j <= 4; ++j)
            for (int i = -1; i <= 3; ++i) f(i, j, k) = v++;
    v = 1.0;
    for (int k = -1; k <= 5; ++k)
        for (int j = -1; j <= 4; ++j)
            for (int i = -1; i <= 3; ++i) ASSERT_EQ(f(i, j, k), v++);
}

TEST(Field3, XIsContiguous) {
    core::Field3 f({8, 3, 3});
    const auto v = f.view();
    EXPECT_EQ(v.offset(1, 0, 0), v.offset(0, 0, 0) + 1);
    EXPECT_EQ(v.offset(0, 1, 0), v.offset(0, 0, 0) + 10);  // nx + 2 halo
    EXPECT_EQ(v.offset(0, 0, 1), v.offset(0, 0, 0) + 50);  // (nx+2)*(ny+2)
}

// Output routines take a FieldView: a temporary Field3 must not convert to
// one, or a write into it (say, core::unpack(Field3(n), ...)) would be lost.
static_assert(std::is_convertible_v<core::Field3&, core::FieldView>);
static_assert(!std::is_convertible_v<core::Field3&&, core::FieldView>);
static_assert(std::is_convertible_v<const core::Field3&, core::ConstFieldView>);
static_assert(std::is_convertible_v<core::Field3&&, core::ConstFieldView>);

TEST(Field3, CopyRegionFrom) {
    core::Field3 a({4, 4, 4}, 0.0);
    core::Field3 b({4, 4, 4}, 7.0);
    a.copy_region_from(b, {{1, 1, 1}, {3, 3, 3}});
    int sevens = 0;
    for (int k = 0; k < 4; ++k)
        for (int j = 0; j < 4; ++j)
            for (int i = 0; i < 4; ++i)
                if (a(i, j, k) == 7.0) ++sevens;
    EXPECT_EQ(sevens, 8);
    EXPECT_EQ(a(0, 0, 0), 0.0);
    EXPECT_EQ(a(1, 1, 1), 7.0);
    EXPECT_EQ(a(2, 2, 2), 7.0);
    EXPECT_EQ(a(3, 3, 3), 0.0);
}

TEST(Field3, InteriorEqualsIgnoresHalo) {
    core::Field3 a({3, 3, 3}, 1.0);
    core::Field3 b({3, 3, 3}, 1.0);
    b.fill_halo(99.0);
    EXPECT_TRUE(a.interior_equals(b));
    b(1, 1, 1) = 2.0;
    EXPECT_FALSE(a.interior_equals(b));
    EXPECT_FALSE(a.interior_equals(core::Field3({3, 3, 4}, 1.0)));
}

TEST(Field3, SwapExchangesStorage) {
    core::Field3 a({2, 2, 2}, 1.0);
    core::Field3 b({2, 2, 2}, 2.0);
    a.swap(b);
    EXPECT_EQ(a(0, 0, 0), 2.0);
    EXPECT_EQ(b(0, 0, 0), 1.0);
}

}  // namespace
