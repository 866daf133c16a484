#pragma once
/// \file coeff_cache.hpp
/// Per-cell stencil coefficients for variable-velocity scenarios, with a
/// compacted per-row cache (docs/SCENARIOS.md).
///
/// For a spatially varying steady velocity c(x) the Lax-Wendroff tensor
/// product stays second order when the one-dimensional factors are formed
/// from the *midpoint-traced* velocity
///     c_hat(x) = c(x - c(x) dt / 2),   q_d = nu c_hat_d,
/// i.e. the velocity sampled halfway along the characteristic arriving at
/// the cell. The resulting update is exactly tri-quadratic interpolation of
/// the previous state at the midpoint-method foot of the characteristic —
/// a semi-Lagrangian step whose foot is O(dt^3)-accurate per step, hence
/// globally second order in the advective terms. For constant c the
/// midpoint shift is a no-op and `CoeffField::at` reproduces
/// `tensor_product_coeffs(base, nu)` bitwise — the constant case never
/// leaves the single-table fast path.
///
/// Both varying shapes are steady, so coefficients are built ONCE per run
/// (at plan-build time: no per-step or per-tile tensor_product_coeffs work)
/// into a CoeffCache: a pool of distinct x-rows, deduplicated by the
/// shape's row key — SolidBodyRotation varies with (x, y) only, so rows
/// repeat across k and the pool holds ny rows; Deformational needs
/// (j, k)-distinct rows. Each row is stored struct-of-arrays: the nx values
/// of term t are contiguous, so the vector row kernel, whose lanes are
/// neighbouring points, loads every term's coefficients unit-stride.
///
/// Bitwise contract: every consumer — threaded row sweeps, team stages and
/// simulated-GPU launches through apply_stencil_var_rows /
/// apply_stencil_var_row_ptr, and run_reference through stencil_var_point —
/// evaluates cells through the same `CoeffField::at` and accumulates each
/// cell's 27 products into 0.0 in StencilCoeffs::index order, so variable-
/// coefficient runs are bitwise implementation-invariant exactly like the
/// constant path, and the reference checks the vector kernel against the
/// scalar arithmetic rather than against itself.

#include <cstdint>
#include <vector>

#include "core/coefficients.hpp"
#include "core/field.hpp"
#include "core/rows.hpp"
#include "core/scenario.hpp"

namespace advect::core {

/// Pure per-cell coefficient evaluator: global index -> physical point ->
/// midpoint-traced velocity -> tensor-product coefficients. Trivially
/// copyable so simulated-GPU kernels capture it by value and reproduce the
/// cache's bits on device.
struct CoeffField {
    VelocityField vel{};
    double nu = 1.0;
    double delta = 1.0;

    [[nodiscard]] double dt() const { return nu * delta; }

    /// Coefficients for the cell at global index (gi, gj, gk).
    [[nodiscard]] StencilCoeffs at(int gi, int gj, int gk) const;
};

/// Compacted per-rank coefficient table: one struct-of-arrays row of
/// 27 x nx doubles per *distinct* x-row of the local block, with an index
/// from (j, k) to the shared row. Built once per rank at setup time.
class CoeffCache {
  public:
    CoeffCache() = default;
    /// Rows for a local block of extents `local` at global origin `origin`.
    CoeffCache(const CoeffField& cf, Extents3 local, Index3 origin);

    /// Coefficients of local row (j, k), struct-of-arrays: term t of cell i
    /// (t in StencilCoeffs::index order) at row(j, k)[t * nx() + i].
    [[nodiscard]] const double* row(int j, int k) const {
        return pool_.data() +
               static_cast<std::size_t>(row_id_[idx(j, k)]) * row_stride_;
    }
    [[nodiscard]] int nx() const { return nx_; }
    /// Number of distinct rows actually stored (compaction diagnostics).
    [[nodiscard]] std::size_t distinct_rows() const {
        return row_stride_ ? pool_.size() / row_stride_ : 0;
    }
    [[nodiscard]] bool empty() const { return pool_.empty(); }

  private:
    [[nodiscard]] std::size_t idx(int j, int k) const {
        return static_cast<std::size_t>(k) * static_cast<std::size_t>(ny_) +
               static_cast<std::size_t>(j);
    }

    std::vector<double> pool_;          // distinct rows, back to back
    std::vector<std::int32_t> row_id_;  // (j, k) -> row index into pool_
    std::size_t row_stride_ = 0;        // doubles per row = 27 * nx
    int nx_ = 0, ny_ = 0, nz_ = 0;
};

/// The variable-coefficient reference arithmetic: 27 products accumulated
/// into 0.0 in StencilCoeffs::index order (di fastest, dk slowest — the
/// same order as the constant-path stencil_point). `a` holds the cell's 27
/// coefficients, `c` points at the cell in the padded input layout with row
/// stride `sj` and plane stride `sk` doubles.
[[nodiscard]] inline double stencil_var_point(const double* a, const double* c,
                                              std::ptrdiff_t sj,
                                              std::ptrdiff_t sk) {
    double acc = 0.0;
    int t = 0;
    for (int dk = -1; dk <= 1; ++dk)
        for (int dj = -1; dj <= 1; ++dj) {
            const double* p = c + dj * sj + dk * sk;
            for (int di = -1; di <= 1; ++di, ++t) acc += a[t] * p[di];
        }
    return acc;
}

/// Variable-coefficient analogue of apply_stencil_rows: rows [lo, hi) of
/// `rows` through apply_stencil_var_row_ptr, coefficients from `cache`
/// (rows may start at xlo > 0; the cache row is indexed by absolute local
/// i).
void apply_stencil_var_rows(const CoeffCache& cache, const Field3& in,
                            Field3& out, const RowSpace& rows,
                            std::int64_t lo, std::int64_t hi);

}  // namespace advect::core
