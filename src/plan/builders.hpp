#pragma once
/// \file builders.hpp
/// One StepPlanBuilder per §IV implementation. Each builder writes down the
/// per-step task graph — the knowledge that used to live twice, once
/// imperatively in the src/impl drivers and once in src/sched's hand-built
/// DES graphs. Builders depend only on task-local geometry (extents and, for
/// §IV-H/I, the CPU-box wall thickness), so every rank can build its own
/// plan and the DES lowering can build the representative task's.

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "plan/ir.hpp"

namespace advect::plan {

/// Geometry a builder needs: everything else (machine, thread counts, block
/// shapes) belongs to the consumers.
struct BuildParams {
    core::Extents3 local;   ///< task-local interior extents
    int box_thickness = 1;  ///< §IV-H/I CPU wall thickness
    /// Temporal-blocking fuse factor: each plan step advances the state by
    /// `fuse` time steps from a fuse-deep halo exchanged once (docs/PERF.md
    /// "Temporal blocking"). 1 builds the classic single-step plans,
    /// byte-identical to before fusing existed. Builders throw
    /// FuseGeometryError when the geometry cannot carry the factor, and
    /// for fuse > 1 with open faces or variable coefficients. Whether the
    /// coefficients compact to the one live term the fused kernel needs is
    /// not theirs to see: impl::plan_job decides that for a whole job.
    int fuse = 1;
    /// Open-face bitmask of the *local* block (core::local_open_faces):
    /// builders emit a boundary_<dim> / kernel-boundary task, one layer
    /// deep, after each open dimension's exchange stage. 0 (the default)
    /// builds the all-periodic plans byte-identical to before scenarios
    /// existed. Requires fuse == 1.
    unsigned open_faces = 0;
    /// Variable-coefficient scenario: stencil tasks read the per-cell
    /// coefficient cache instead of the single constant table. Requires
    /// fuse == 1.
    bool var_coeff = false;
};

StepPlan build_single_task(const BuildParams& p);        // §IV-A
StepPlan build_mpi_bulk(const BuildParams& p);           // §IV-B
StepPlan build_mpi_nonblocking(const BuildParams& p);    // §IV-C
StepPlan build_mpi_thread_overlap(const BuildParams& p); // §IV-D
StepPlan build_gpu_resident(const BuildParams& p);       // §IV-E
StepPlan build_gpu_mpi_bulk(const BuildParams& p);       // §IV-F
StepPlan build_gpu_mpi_streams(const BuildParams& p);    // §IV-G
StepPlan build_cpu_gpu_bulk(const BuildParams& p);       // §IV-H
StepPlan build_cpu_gpu_overlap(const BuildParams& p);    // §IV-I

/// Dispatch by registry implementation id ("single_task", "mpi_bulk", ...).
/// Throws std::out_of_range for an unknown id. The returned plan passes
/// validate().
StepPlan build_step_plan(const std::string& impl_id, const BuildParams& p);

namespace detail {

/// Printable dimension suffixes for task names ("pack_x", "comm_y", ...).
inline constexpr const char* kDimName[3] = {"x", "y", "z"};

/// Bytes of one halo message per dimension (one direction of one stage of
/// the serialized exchange) at ghost depth `depth`.
[[nodiscard]] std::array<std::size_t, 3> face_bytes(
    const core::Extents3& local, int depth = 1);

[[nodiscard]] std::size_t points_of(const std::vector<core::Range3>& regions);

/// Bytes of the six MPI halo slabs staged host->device each step (§IV-F/G)
/// at ghost depth `depth`.
[[nodiscard]] std::size_t mpi_halo_bytes(const core::Extents3& local,
                                         int depth = 1);

/// Stamp temporal blocking on a compute payload: payload.fuse and the
/// fused stencil applications the model prices over payload.regions — for
/// each region, sum over levels s = 1..F of |expand(region, F-s)|, the
/// ghost-zone pyramid of a general fused stencil. A no-op at fuse 1,
/// keeping unfused plans byte-identical.
void set_fused(Payload& payload, int fuse);

/// The whole local interior [0, n)^3 as a region.
[[nodiscard]] core::Range3 whole(const core::Extents3& local);

/// Incremental plan assembly; `finish` stamps the terminal and validates.
class Writer {
  public:
    StepPlan plan;

    int add(std::string name, Op op, trace::Lane lane, std::vector<int> deps,
            Payload payload = {});
    [[nodiscard]] StepPlan finish() &&;
};

/// Stamp the scenario parameters (open faces, coefficient variability) on
/// the plan under assembly. Call before any exchange helper so the emitted
/// boundary tasks see the mask. Throws FuseGeometryError for the
/// combinations no builder supports: open faces or variable coefficients
/// under temporal blocking.
void set_scenario(Writer& w, const BuildParams& p);

/// Append dimension `dim`'s open-boundary fill (one layer deep) after task
/// `dep` when the plan's open-face mask has faces in that dimension;
/// returns the new chain tail (just `dep` when the dimension is closed).
int add_boundary_dim(Writer& w, const core::Extents3& local, int dim,
                     int dep);

/// Append the §IV-B serialized bulk exchange: post_recvs, then per dimension
/// pack -> comm -> unpack, each stage feeding the next. `root_deps` seed
/// post_recvs; a non-empty `cross_step` makes post_recvs depend on the named
/// task of the *previous* step instead of the previous step's terminal.
/// `depth` is the exchanged ghost width (the plan's fuse factor). When the
/// plan's open-face mask names a dimension, that dimension's boundary fill
/// is chained after its unpack (before the next dimension packs, so corner
/// data carried by later stages is already boundary-correct). Returns the
/// index of the final unpack (or boundary fill).
int add_bulk_exchange(Writer& w, const core::Extents3& local,
                      std::vector<int> root_deps, std::string cross_step = {},
                      int depth = 1);

/// Append one dimension of the overlapped exchange (§IV-C, §IV-I):
/// pack -> {nic DMA || cpu overlap work} -> wait -> unpack. `work` is the
/// stencil region computed while dimension `dim`'s messages are in flight
/// (may be empty on thin subdomains); `work_eff` marks it as a strided
/// boundary pass for the model. `fuse` sets both the exchanged ghost depth
/// and the overlap work's fuse factor. As with add_bulk_exchange, an open
/// dimension chains its boundary fill after the unpack. Returns the index
/// of the unpack (or boundary fill).
int add_overlapped_dim(Writer& w, const core::Extents3& local, int dim,
                       std::vector<int> root_deps, std::string work_name,
                       std::vector<core::Range3> work, bool work_eff,
                       int fuse = 1);

}  // namespace detail

}  // namespace advect::plan
