#include "core/rows.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "core/halo.hpp"
#include "core/source.hpp"
#include "core/stencil.hpp"

namespace advect::core {

RowSpace::RowSpace(std::vector<Range3> regions) : regions_(std::move(regions)) {
    prefix_.reserve(regions_.size() + 1);
    prefix_.push_back(0);
    for (const auto& r : regions_) {
        const auto e = r.extents();
        total_ += static_cast<std::int64_t>(e.ny) * e.nz;
        prefix_.push_back(total_);
    }
}

std::size_t RowSpace::points() const {
    std::size_t p = 0;
    for (const auto& r : regions_) p += r.volume();
    return p;
}

std::size_t RowSpace::region_of(std::int64_t flat) const {
    // Consecutive lookups almost always hit the same region (scheduler
    // chunks walk rows in order), so try the cached index before falling
    // back to binary search. Relaxed atomics: the cache is a hint; any
    // stale value is detected by the range check and merely costs a search.
    std::size_t ri = last_.region.load(std::memory_order_relaxed);
    if (ri + 1 >= prefix_.size() || flat < prefix_[ri] ||
        flat >= prefix_[ri + 1]) {
        const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), flat);
        ri = static_cast<std::size_t>(it - prefix_.begin() - 1);
        last_.region.store(ri, std::memory_order_relaxed);
    }
    return ri;
}

RowSpace::Row RowSpace::row(std::int64_t flat) const {
    assert(flat >= 0 && flat < total_);
    Row out{};
    for_each_run(flat, flat + 1, [&](const Row& r, int) { out = r; });
    return out;
}

void apply_stencil_rows(const StencilCoeffs& a, ConstFieldView in,
                        FieldView out, const RowSpace& rows, std::int64_t lo,
                        std::int64_t hi, const FusedSource* src, bool wrap) {
    const StencilPlan plan = StencilPlan::make(a, in);
    rows.for_each_row(lo, hi, [&](const RowSpace::Row& r) {
        apply_stencil_row_ptr(plan, in.ptr(r.xlo, r.j, r.k),
                              out.ptr(r.xlo, r.j, r.k), r.xhi - r.xlo);
        detail::finish_row(out, r, src, wrap);
    });
}

void apply_stencil_chain_rows(const StencilCoeffs& a, ConstFieldView in,
                              FieldView out, const RowSpace& rows,
                              std::int64_t lo, std::int64_t hi, int depth) {
    const StencilPlan plan = StencilPlan::make(a, in);
    rows.for_each_run(lo, hi, [&](const RowSpace::Row& r, int count) {
        apply_stencil_chain_ptr(plan, depth, in.ptr(r.xlo, r.j, r.k),
                                out.ptr(r.xlo, r.j, r.k), r.xhi - r.xlo,
                                count, in.x_stride(), out.x_stride());
    });
}

void detail::finish_row(FieldView out, const RowSpace::Row& r,
                        const FusedSource* src, bool wrap) {
    // Adding Q after the row's stencil pass is bitwise-identical to adding
    // it inside the kernel: each point is (stencil sum) + Q either way.
    if (src != nullptr && src->field.active())
        add_source_plane(out.ptr(r.xlo, r.j, r.k), 0, r.xhi - r.xlo, 1,
                         src->origin.i + r.xlo, src->origin.j + r.j,
                         src->origin.k + r.k, src->base_level, src->field);
    if (wrap) {
        assert(r.xlo == 0 && r.xhi == out.extents().nx);
        wrap_periodic_row(out, r.j, r.k);
    }
}

void copy_rows(const Field3& src, Field3& dst, const RowSpace& rows,
               std::int64_t lo, std::int64_t hi) {
    rows.for_each_row(lo, hi, [&](const RowSpace::Row& r) {
        std::memcpy(dst.ptr(r.xlo, r.j, r.k), src.ptr(r.xlo, r.j, r.k),
                    static_cast<std::size_t>(r.xhi - r.xlo) * sizeof(double));
    });
}

}  // namespace advect::core
