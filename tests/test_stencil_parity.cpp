/// \file test_stencil_parity.cpp
/// Bitwise parity of the stencil row-kernel builds. The library ships one
/// kernel body compiled twice — a portable baseline and an AVX2 clone picked
/// at load time (src/core/stencil.cpp) — and the whole codebase leans on the
/// guarantee that every clone, and every blocked/remainder path inside a
/// clone, matches core::stencil_point bit for bit. These tests force the
/// portable build against the dispatched fast path on identical inputs and
/// memcmp the raw bytes, across row lengths that exercise the 8-wide blocked
/// loop, the scalar remainder, and their seam — for the broadcast-coefficient
/// build and the variable-coefficient (struct-of-arrays row) build alike.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/coeff_cache.hpp"
#include "core/coefficients.hpp"
#include "core/field.hpp"
#include "core/stencil.hpp"

namespace core = advect::core;

namespace {

core::StencilCoeffs test_coeffs() {
    // Realistic magnitudes with no special structure: results depend on
    // every one of the 27 terms, so a reordered accumulation shows up.
    core::StencilCoeffs a;
    std::mt19937 rng(2011);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (auto& c : a.a) c = d(rng);
    return a;
}

core::Field3 random_field(core::Extents3 n, std::uint32_t seed) {
    core::Field3 f(n);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-10.0, 10.0);
    // Fill halo too: row kernels read the full neighbourhood.
    for (int k = -1; k <= n.nz; ++k)
        for (int j = -1; j <= n.ny; ++j)
            for (int i = -1; i <= n.nx; ++i) *f.ptr(i, j, k) = d(rng);
    return f;
}

}  // namespace

TEST(StencilParity, DispatchedRowMatchesPortableBitwise) {
    // Row lengths straddling the blocked-loop width: pure remainder (< 8),
    // exact blocks, blocks + remainder, and a long row.
    const int lengths[] = {1, 3, 7, 8, 9, 15, 16, 23, 40, 129};
    const core::Extents3 n{144, 3, 3};
    const auto a = test_coeffs();
    const auto in = random_field(n, 77);
    const auto plan = core::StencilPlan::make(a, in);

    SCOPED_TRACE(core::detail::row_kernel_is_vectorized()
                     ? "dispatched path: AVX2 clone"
                     : "dispatched path: portable baseline");

    for (int len : lengths) {
        std::vector<double> fast(static_cast<std::size_t>(len), -1.0);
        std::vector<double> portable(static_cast<std::size_t>(len), -2.0);
        const double* centre = in.ptr(2, 1, 1);
        core::apply_stencil_row_ptr(plan, centre, fast.data(), len);
        core::detail::apply_stencil_row_portable(plan, centre,
                                                 portable.data(), len);
        EXPECT_EQ(std::memcmp(fast.data(), portable.data(),
                              fast.size() * sizeof(double)),
                  0)
            << "fast and portable rows differ bitwise at length " << len;
    }
}

TEST(StencilParity, RowKernelMatchesReferencePointBitwise) {
    const core::Extents3 n{21, 4, 4};
    const auto a = test_coeffs();
    const auto in = random_field(n, 4242);
    core::Field3 out(n);
    core::apply_stencil(a, in, out);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) {
                const double ref = core::stencil_point(a, in, i, j, k);
                const double got = out(i, j, k);
                EXPECT_EQ(std::memcmp(&ref, &got, sizeof(double)), 0)
                    << "apply_stencil diverges from stencil_point at (" << i
                    << "," << j << "," << k << "): " << ref << " vs " << got;
            }

    // The variable-coefficient build of the same kernel body: both the
    // portable baseline and the dispatched clone, over a struct-of-arrays
    // row (term t of cell x at row[t * nx + x]), against stencil_var_point
    // for every row length through the blocked loop, its 4-wide step and
    // the scalar tail, from aligned and unaligned starts.
    const int nx = 74;
    const auto vin = random_field({nx, 3, 3}, 31);
    std::vector<double> row(27 * static_cast<std::size_t>(nx));
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (double& c : row) c = d(rng);
    const std::ptrdiff_t sj = vin.x_stride(), sk = vin.xy_stride();
    SCOPED_TRACE(core::detail::row_kernel_is_vectorized()
                     ? "dispatched path: AVX2 clone"
                     : "dispatched path: portable baseline");
    for (const int xlo : {0, 1, 3})
        for (int len = 1; len <= 70; ++len) {
            std::vector<double> fast(static_cast<std::size_t>(len), -1.0);
            std::vector<double> portable(static_cast<std::size_t>(len), -2.0);
            const double* coeff = row.data() + xlo;
            const double* centre = vin.ptr(xlo, 1, 1);
            core::apply_stencil_var_row_ptr(coeff, nx, centre, fast.data(),
                                            len, sj, sk);
            core::detail::apply_stencil_var_row_portable(
                coeff, nx, centre, portable.data(), len, sj, sk);
            for (int x = 0; x < len; ++x) {
                double cell[27];
                for (int t = 0; t < 27; ++t) cell[t] = coeff[t * nx + x];
                const double ref =
                    core::stencil_var_point(cell, centre + x, sj, sk);
                const auto at = static_cast<std::size_t>(x);
                ASSERT_EQ(std::memcmp(&ref, &fast[at], sizeof(double)), 0)
                    << "dispatched variable row diverges at xlo=" << xlo
                    << " len=" << len << " x=" << x;
                ASSERT_EQ(std::memcmp(&ref, &portable[at], sizeof(double)), 0)
                    << "portable variable row diverges at xlo=" << xlo
                    << " len=" << len << " x=" << x;
            }
        }
}

TEST(StencilParity, PortableKernelMatchesReferenceBitwise) {
    // Pin the *baseline* itself to the reference arithmetic, so the
    // dispatched-vs-portable memcmp above cannot pass vacuously with both
    // clones drifting together.
    const core::Extents3 n{33, 3, 3};
    const auto a = test_coeffs();
    const auto in = random_field(n, 9);
    const auto plan = core::StencilPlan::make(a, in);
    std::vector<double> row(static_cast<std::size_t>(n.nx));
    core::detail::apply_stencil_row_portable(plan, in.ptr(0, 1, 1),
                                             row.data(), n.nx);
    for (int i = 0; i < n.nx; ++i) {
        const double ref = core::stencil_point(a, in, i, 1, 1);
        EXPECT_EQ(std::memcmp(&ref, &row[static_cast<std::size_t>(i)],
                              sizeof(double)),
                  0)
            << "portable kernel diverges from stencil_point at x=" << i;
    }
}
