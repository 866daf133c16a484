#pragma once
/// \file fused.hpp
/// Temporal blocking (fused multi-step sweeps): advance a cache-sized tile
/// F time steps while its working set is hot, instead of sweeping the whole
/// field once per step. The price is deepened ghost zones — a point s fused
/// steps from the final write set needs s extra layers of level-(s-1) data —
/// so each tile redundantly recomputes a shrinking pyramid of intermediate
/// levels from an F-deep halo exchanged once per fused super-step
/// (docs/PERF.md "Temporal blocking").
///
/// Bitwise contract: every level is computed by the same
/// apply_stencil_row_ptr row kernel as the unfused path, and the level-s
/// value of any point depends only on exact level-(s-1) values, so the state
/// after one fused super-step is bitwise-identical to F unfused steps —
/// independent of the tile decomposition, which only changes *which* points
/// are redundantly recomputed, never their values.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "core/coefficients.hpp"
#include "core/field.hpp"
#include "core/source.hpp"
#include "core/stencil.hpp"

namespace advect::core {

/// Manufactured-source context of one fused super-step: the bound source
/// field, the global origin of the local field's (0,0,0), and the time level
/// the super-step starts from. Level s of the pipeline adds
/// Q(global point, base_level + s - 1) to every plane it produces —
/// including redundantly recomputed ghost planes, which therefore stay
/// bitwise-equal to the owning points (SourceField::q wraps globally).
struct FusedSource {
    SourceField field{};
    Index3 origin{};
    int base_level = 0;
};

/// One tile of a fused sweep: the final-level write set. The tile reads
/// expand(out, F) of the input field; the intermediate levels live in a
/// rotating 3-plane ring per level (see apply_fused_tile), so tiles span the
/// full z extent and only shrink in x/y when the ring exceeds the budget.
struct FusedTile {
    Range3 out;
};

/// Slot of z plane `z` in a rotating ring of three plane slabs (z may be
/// negative near the halo).
[[nodiscard]] inline int ring_slot(int z) { return ((z % 3) + 3) % 3; }

/// The three rotation-phase plans for reading such a ring — row pitch
/// `x_stride`, slabs `plane` doubles apart: phase p (the ring slot of the
/// centre plane) finds its dk = ±1 planes in slots (p ± 1) mod 3. Both
/// rotating tiles use them: the fused CPU tile and the simulated GPU's
/// shared-memory tile.
[[nodiscard]] std::array<StencilPlan, 3> rotation_plans(
    const StencilCoeffs& a, std::ptrdiff_t x_stride, std::ptrdiff_t plane);

/// Total stencil applications of one fused super-step over `regions`,
/// including the redundant ghost-zone recomputation: for each region,
/// sum over levels s = 1..F of |expand(region, F-s)|. Tiling adds further
/// (tile-size-dependent) redundancy not counted here; this is the
/// first-order cost the DES model charges fused tasks.
[[nodiscard]] std::size_t fused_point_count(
    const std::vector<Range3>& regions, int fuse);

/// Decomposition of a task's stencil regions into cache-sized fused tiles.
/// Tiles are the unit of parallel work in a fused plan (they are disjoint in
/// their write sets, so any assignment of tiles to threads is race-free).
class FusedSweepPlan {
  public:
    /// Per-worker scratch budget the tiler aims for: the 3(F-1) rotating
    /// ring planes of one tile should fit in a private cache.
    static constexpr std::size_t kDefaultCacheBytes = std::size_t{1} << 20;

    FusedSweepPlan() = default;

    /// Tile `regions` (disjoint final write sets) for fuse factor `fuse`.
    /// Tiles keep x rows as long as possible and shrink y, then x, until the
    /// ring working set fits `cache_bytes`; the z extent stays whole (the
    /// plane pipeline holds only 3 planes per level regardless of z).
    FusedSweepPlan(const std::vector<Range3>& regions, int fuse,
                   std::size_t cache_bytes = kDefaultCacheBytes);

    [[nodiscard]] int fuse() const { return fuse_; }
    [[nodiscard]] const std::vector<FusedTile>& tiles() const {
        return tiles_;
    }
    [[nodiscard]] std::size_t size() const { return tiles_.size(); }
    /// Doubles of per-worker scratch apply_fused_tile needs for any tile of
    /// this plan.
    [[nodiscard]] std::size_t scratch_doubles() const { return scratch_; }

  private:
    int fuse_ = 1;
    std::vector<FusedTile> tiles_;
    std::size_t scratch_ = 0;
};

/// Advance `tile` by `fuse` steps: read `in` on expand(tile, fuse) (which
/// must hold valid data — interior, or halos of a field with
/// halo_width() >= the overhang), write the state after `fuse` steps into
/// `out` over `tile` only. The levels advance as a wavefront over z: each
/// intermediate level keeps a rotating ring of 3 z-plane slabs in `scratch`
/// (at least the plan's scratch_doubles(); contents clobbered), so the
/// working set is O(plane), not O(tile volume). Bitwise-identical to `fuse`
/// successive apply_stencil sweeps given exact halo data. When `src` is
/// non-null and active, every produced level-s plane additionally gains the
/// manufactured increment Q at time level src->base_level + s - 1 —
/// bitwise-identical to `fuse` successive (apply_stencil + add_source)
/// steps.
void apply_fused_tile(const StencilCoeffs& a, const Field3& in, Field3& out,
                      const Range3& tile, int fuse, std::span<double> scratch,
                      const FusedSource* src = nullptr);

/// Serial fused sweep: apply_fused_tile over every tile of `plan`.
/// `scratch` is reused across tiles (sized plan.scratch_doubles()).
void apply_fused_sweep(const StencilCoeffs& a, const Field3& in, Field3& out,
                       const FusedSweepPlan& plan, std::span<double> scratch,
                       const FusedSource* src = nullptr);

}  // namespace advect::core
