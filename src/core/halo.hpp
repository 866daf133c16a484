#pragma once
/// \file halo.hpp
/// Halo-exchange geometry for the ghost layer. The paper (§IV-B) uses the
/// well-established serialized-dimension strategy: exchange x faces first,
/// then y faces including the freshly filled x halos, then z faces including
/// x and y halos. Corners propagate through intermediate neighbours,
/// reducing the 26-neighbour exchange to 6 messages per step. The ghost
/// width is 1 for single-step plans and F for temporal-blocking plans that
/// fuse F steps per exchange (each fused step consumes one ghost layer).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/field.hpp"

namespace advect::core {

/// Send/receive regions for one dimension's stage of the serialized halo
/// exchange. Messages "travel" in a direction: the low-travelling message
/// carries this rank's low boundary plane to the low neighbour, where it
/// lands in that rank's high halo (and symmetrically).
struct DimExchange {
    int dim = 0;
    Range3 send_low;   ///< slab [0, d), sent to the low neighbour
    Range3 send_high;  ///< slab [n-d, n), sent to the high neighbour
    Range3 recv_low;   ///< halo [-d, 0), filled by the low neighbour
    Range3 recv_high;  ///< halo [n, n+d), filled by the high neighbour
};

/// Full three-stage plan for a local domain of extents `n`.
struct HaloPlan {
    std::array<DimExchange, 3> dims;
    int depth = 1;  ///< ghost width d the plan moves

    /// Build the plan for ghost width `depth` (boundary slabs `depth`
    /// points thick). Transverse extents grow per stage so corner data
    /// propagates: x uses interior j,k; y includes x halos; z includes both.
    [[nodiscard]] static HaloPlan make(Extents3 n, int depth = 1);

    /// Number of doubles moved in one direction of stage `dim`.
    [[nodiscard]] std::size_t message_count(int dim) const {
        return dims[static_cast<std::size_t>(dim)].send_low.volume();
    }
};

/// Copy `region` of `f` into a flat buffer, x fastest then y then z. Given
/// `lo` and `hi`, only the region's x-rows [lo, hi) (numbered j fastest,
/// then k) move, row r to out[r * nx, (r + 1) * nx): disjoint row chunks
/// write disjoint slices, so team threads may each pack one.
void pack(ConstFieldView f, const Range3& region, std::span<double> out,
          std::int64_t lo = 0, std::int64_t hi = INT64_MAX);
[[nodiscard]] std::vector<double> pack(ConstFieldView f, const Range3& region);

/// Inverse of pack, row chunks included.
void unpack(FieldView f, const Range3& region, std::span<const double> in,
            std::int64_t lo = 0, std::int64_t hi = INT64_MAX);

/// Fill one dimension's halos from the opposite boundary of the same field
/// (single-task periodic case, or a dimension in which a rank is its own
/// neighbour). Uses the same staged transverse extents as HaloPlan.
/// `depth` 0 (the default) fills the field's full halo width.
void fill_periodic_halo_dim(Field3& f, int dim, int depth = 0);

/// Fill all halos periodically, serialized x then y then z. `depth` 0 (the
/// default) fills the field's full halo width.
void fill_periodic_halo(Field3& f, int depth = 0);

/// Halo rows of stage `dim` of a periodic fill `depth` deep over extents
/// `n`: the x-rows of its low and then its high receive slab.
[[nodiscard]] std::int64_t periodic_halo_rows(Extents3 n, int dim, int depth);

/// Stage `dim` of the periodic fill, `depth` deep, by row copies: each halo
/// row takes its periodic source row n planes away. Given `lo` and `hi`,
/// only halo rows [lo, hi) (see periodic_halo_rows) move; disjoint row
/// chunks write disjoint rows, so team threads may each fill one. Once all
/// rows have moved, value-identical to fill_periodic_halo_dim(f, dim,
/// depth).
void fill_periodic_halo_rows(FieldView f, int dim, int depth,
                             std::int64_t lo = 0, std::int64_t hi = INT64_MAX);

/// Periodic images of one written interior row (j, k), whole in x: every
/// halo point of `f` (full halo width h) whose periodic preimage lies in
/// the row. First the row's x-wrap values (its h points at each x face,
/// copied to the opposite x halo of the same row), then the padded row
/// copied to each of its 0-3 y/z images. Reads only row (j, k). With
/// h <= n in every dimension each halo point has exactly one interior
/// preimage, so once every interior row has been written and wrapped -- in
/// any order, by any thread -- the halo equals fill_periodic_halo's, bit
/// for bit. The single-task sweep's row epilogue (docs/PERF.md "Step 1 is
/// a row epilogue").
void wrap_periodic_row(FieldView f, int j, int k);

}  // namespace advect::core
