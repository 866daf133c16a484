#pragma once
/// \file rows.hpp
/// Flattened iteration over the (k, j) rows of a list of regions. The
/// paper's OpenMP implementations parallelise the outer two loops of the
/// triply nested stencil/copy loops with collapse(2); RowSpace provides the
/// same flattened iteration space for arbitrary region lists (whole
/// interior, boundary slabs, CPU box walls, ...) so that every
/// implementation schedules work over x-contiguous rows.

#include <algorithm>
#include <atomic>
#include <span>
#include <vector>

#include "core/coefficients.hpp"
#include "core/field.hpp"

namespace advect::core {

/// Iteration space of all x-rows (fixed j, k) of a list of disjoint regions.
class RowSpace {
  public:
    RowSpace() = default;
    explicit RowSpace(std::vector<Range3> regions);

    /// Total number of rows across all regions.
    [[nodiscard]] std::int64_t size() const { return total_; }
    /// Total number of points across all regions.
    [[nodiscard]] std::size_t points() const;

    /// One x-row: [xlo, xhi) at fixed (j, k).
    struct Row {
        int xlo, xhi, j, k;
    };
    /// Decode a flat row index (0 <= flat < size()).
    [[nodiscard]] Row row(std::int64_t flat) const;

    /// Visit rows [lo, hi) in flat order as runs of consecutive rows of one
    /// plane of one region: fn(const Row& first, int count) covers rows
    /// first.j .. first.j + count - 1 at first.k. One region lookup per
    /// *range*, not per row, so hot loops pay no per-row search at all.
    template <class Fn>
    void for_each_run(std::int64_t lo, std::int64_t hi, Fn&& fn) const {
        if (lo < 0) lo = 0;
        if (hi > total_) hi = total_;
        if (lo >= hi) return;
        for (std::size_t ri = region_of(lo); lo < hi; ++ri) {
            const std::int64_t stop = std::min(hi, prefix_[ri + 1]);
            for_each_run(regions_[ri], lo - prefix_[ri], stop - prefix_[ri],
                         fn);
            lo = stop;
        }
    }

    /// The same runs over rows [lo, hi) of the one region `r`, numbered
    /// j fastest, then k (0 <= lo, hi <= r's row count).
    template <class Fn>
    static void for_each_run(const Range3& r, std::int64_t lo,
                             std::int64_t hi, Fn&& fn) {
        const int ny = r.hi.j - r.lo.j;
        int j = r.lo.j + static_cast<int>(lo % ny);
        int k = r.lo.k + static_cast<int>(lo / ny);
        while (lo < hi) {
            const int count = static_cast<int>(
                std::min<std::int64_t>(r.hi.j - j, hi - lo));
            fn(Row{r.lo.i, r.hi.i, j, k}, count);
            lo += count;
            j = r.lo.j;
            ++k;
        }
    }

    /// Visit rows [lo, hi) in flat order, one at a time: fn(const Row&).
    template <class Fn>
    void for_each_row(std::int64_t lo, std::int64_t hi, Fn&& fn) const {
        for_each_run(lo, hi, [&](const Row& first, int count) {
            for (int j = first.j; j < first.j + count; ++j)
                fn(Row{first.xlo, first.xhi, j, first.k});
        });
    }

    [[nodiscard]] std::span<const Range3> regions() const { return regions_; }

  private:
    /// Index of the region containing flat row `flat`, with a relaxed cache
    /// of the last hit (scheduler chunks walk rows in order, so repeated
    /// lookups almost always land in the same region).
    [[nodiscard]] std::size_t region_of(std::int64_t flat) const;

    /// The cached region index is a performance hint, not state: copies
    /// and moves of a RowSpace leave it as it was.
    struct Hint {
        mutable std::atomic<std::size_t> region{0};
        Hint() = default;
        Hint(const Hint&) noexcept {}
        Hint& operator=(const Hint&) noexcept { return *this; }
    };

    std::vector<Range3> regions_;
    std::vector<std::int64_t> prefix_;  // prefix row counts per region
    std::int64_t total_ = 0;
    Hint last_;
};

struct FusedSource;  // core/source.hpp

/// Apply the stencil to rows [lo, hi) of `rows`: the unit of work handed to
/// one scheduler chunk in the OpenMP-style implementations. Uses the
/// StencilPlan fast path; bitwise-identical to the stencil_point reference.
/// Each row is finished before the next one starts (detail::finish_row):
/// with an active `src` it gains the manufactured increment at
/// src->base_level, and with `wrap` it then writes its periodic images
/// into `out`'s halo.
void apply_stencil_rows(const StencilCoeffs& a, ConstFieldView in,
                        FieldView out, const RowSpace& rows, std::int64_t lo,
                        std::int64_t hi, const FusedSource* src = nullptr,
                        bool wrap = false);

/// Advance rows [lo, hi) of `rows` by `depth` time steps at once through
/// the register chain (apply_stencil_chain_ptr): one chain call per run of
/// consecutive rows in a plane, reading `in` up to `depth` ghost layers
/// beyond each row. `a` must compact to a single live term (impl::plan_job
/// admits fuse > 1 only then); the result is bitwise-identical to `depth`
/// successive apply_stencil_rows sweeps.
void apply_stencil_chain_rows(const StencilCoeffs& a, ConstFieldView in,
                              FieldView out, const RowSpace& rows,
                              std::int64_t lo, std::int64_t hi, int depth);

namespace detail {
/// The row epilogue of apply_stencil_rows and apply_stencil_var_rows, on a
/// row `r` of `out` the stencil just wrote: add src's increment (when `src`
/// is non-null and active), then, with `wrap`, wrap_periodic_row -- which
/// takes whole x-rows, so `r` must then span `out`'s interior in x
/// (docs/PERF.md "Step 1 is a row epilogue").
void finish_row(FieldView out, const RowSpace::Row& r, const FusedSource* src,
                bool wrap);
}  // namespace detail

/// Copy rows [lo, hi) from `src` to `dst` (the paper's Step 3, "copy the new
/// state to the current state"). Rows are x-contiguous, so this is one
/// memcpy per row. No implementation runs it (plan Op::Copy flips the
/// fields); BM_CopyRows times it to calibrate socket_bw_gbs.
void copy_rows(const Field3& src, Field3& dst, const RowSpace& rows,
               std::int64_t lo, std::int64_t hi);

}  // namespace advect::core
