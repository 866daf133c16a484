#pragma once
/// \file ir.hpp
/// The per-time-step task-graph IR (advect::plan): the single written-down
/// form of each implementation's step structure — which operations exist,
/// which resource lane each occupies (cpu / nic / pcie / gpu), what payload
/// each moves or computes, and which operations it depends on. Three
/// consumers share it (docs/ARCHITECTURE.md):
///
///  * the plan executor in src/impl runs the tasks over the real msg/omp/gpu
///    substrates (the nine drivers shrink to "build plan, run executor");
///  * the plan lowering in src/sched turns the same tasks into a
///    discrete-event graph with durations from advect::model;
///  * the trace exporters render both the executed and the simulated
///    timelines, identical in shape by construction.
///
/// Tasks are listed in host issue order: dependencies always point to
/// earlier tasks, so a valid plan is acyclic by construction and the
/// executor can issue tasks front to back.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "trace/span.hpp"

namespace advect::plan {

/// Typed rejection of a fuse factor the job cannot carry: the deepened
/// halo (ghost width = fuse) would exceed the local box extent or (§IV-H/I)
/// the CPU wall thickness, or the job is not one the register chain can
/// fuse — open faces or variable coefficients (the builders), dense
/// coefficients or an active source (impl::plan_job). The message names
/// the reason; the solver harness adds the offending rank to geometry
/// rejections.
class FuseGeometryError : public std::invalid_argument {
  public:
    using std::invalid_argument::invalid_argument;
};

/// Operation kinds. Each maps to one substrate call in the executor and one
/// duration formula in the DES lowering.
enum class Op {
    PostRecvs,   ///< post all nonblocking halo receives (bookkeeping)
    PackSend,    ///< pack + isend both faces of payload.dim (cpu)
    Comm,        ///< blocking message flight of one dim (nic; executor waits)
    CommDma,     ///< NIC DMA progress of one dim, no host call (nic marker)
    Wait,        ///< CPU-driven completion of one dim's messages (cpu+nic)
    Unpack,      ///< unpack both received faces of payload.dim (cpu)
    MasterExchange,  ///< §IV-D: the master thread's whole serial exchange
    /// §IV-A Step 1: periodic halo copies within one field (cpu).
    /// payload.dim selects one stage; -1 fills all three. At runtime an
    /// unfused plan's -1 fill runs only on a stale halo (an executor's
    /// first step): the sweep's row epilogue writes every later step's
    /// images (docs/PERF.md "Step 1 is a row epilogue"). Fused plans fill
    /// once per super-step. The DES lowering still prices the fill every
    /// step, as the paper's code runs it.
    HaloFill,
    BoundaryFill,  ///< open-boundary halo overwrite of payload.dim's open
                   ///< faces, staged after that dim's exchange/fill (cpu)
    Stencil,     ///< Equation 2 over payload.regions (cpu)
    /// The paper's Step 3 (§IV-A): new state becomes current state over
    /// payload.regions, the points the CPU wrote. The executor flips the
    /// host cur/nxt pair in O(1) instead of copying; the DES lowering still
    /// prices the copy at the machine's copy_bytes_per_point (16 B/pt on
    /// the paper machines, 0 on localhost, which runs the flip). At most
    /// one per plan (validate_error).
    Copy,
    HostPack,    ///< host packs staging buffer from field regions (cpu)
    HostUnpack,  ///< host scatters staging buffer into field regions (cpu)
    CopyH2D,     ///< staging buffer PCIe transfer to the device
    CopyD2H,     ///< staging buffer PCIe transfer from the device
    KernelPack,    ///< device-side pack kernels into the staging buffer
    KernelUnpack,  ///< device-side unpack kernels from the staging buffer
    KernelHalo,    ///< §IV-E periodic-halo kernel for payload.dim
    KernelBoundary,  ///< §IV-E device-side open-boundary fill of payload.dim
    KernelStencil, ///< stencil kernel over payload.regions[0]
    KernelFace,    ///< small boundary-face kernel over payload.regions[0]
    Sync,        ///< host blocks on stream/step completion (cpu)
    Swap,        ///< flip current/new device fields (§IV-E; free)
};

[[nodiscard]] const char* op_name(Op op);

/// Loop schedule of a cpu Stencil task (mirrors omp::Schedule without
/// depending on the omp substrate).
enum class Sched { Static, Guided };

/// What a task computes or moves. Only the fields relevant to its Op are
/// meaningful; the rest stay at their defaults.
struct Payload {
    int dim = -1;        ///< exchange / halo dimension (0..2)
    std::vector<core::Range3> regions;  ///< stencil/copy/kernel regions
    std::size_t points = 0;  ///< total points of `regions` (precomputed)
    std::size_t bytes = 0;   ///< staging / halo-fill bytes moved
    /// Temporal blocking: steps this compute task advances its regions per
    /// super-step (1 = classic single-step task).
    int fuse = 1;
    /// Stencil applications the model prices for the fused task: the
    /// ghost-zone pyramid of a general fused stencil (detail::set_fused);
    /// 0 when fuse == 1 (== points).
    std::size_t fused_points = 0;
    Sched schedule = Sched::Static;
    bool boundary_eff = false;  ///< strided boundary pass (model efficiency)
    bool cache_revisit = false; ///< separate boundary pass re-reads planes
    bool synced = false;     ///< host op first blocks on the stream (+sync)
    int sync_count = 1;      ///< number of stream syncs a Sync op performs
    bool coupled_pcie = true;   ///< transfer interleaved with MPI (§IV-F/G)
    int stream = 0;          ///< device stream index issuing this op
    /// KernelPack source: the new-state field (§IV-G/I stage the freshly
    /// computed boundary) instead of the current state (§IV-F/H stage the
    /// pre-step state).
    bool src_next = false;
    /// §IV-I: regions whose kernels steal SM throughput from this kernel
    /// when the device runs kernels concurrently.
    std::vector<core::Range3> contended;
};

/// One task of the step.
struct Task {
    std::string name;  ///< unique within the plan; stable across steps
    Op op = Op::Sync;
    trace::Lane lane = trace::Lane::Host;
    std::vector<int> deps;  ///< indices of earlier tasks in the plan
    /// Lowering: add a dependency on the previous step's terminal task in
    /// addition to `deps` (e.g. §IV-G's halo-unpack kernel waits for the
    /// previous step's end-of-step sync).
    bool also_prev_terminal = false;
    /// Lowering: when `deps` is empty, depend on the previous step's task of
    /// this name instead of the previous terminal (§IV-G's exchange uses the
    /// boundary staged by the previous step, not the step boundary).
    std::string cross_step_dep;
    Payload payload;
};

/// Execution mode of the whole step.
enum class Mode {
    HostIssue,   ///< the rank thread issues tasks front to back
    TeamStages,  ///< §IV-D: one parallel region; master + staged drains
};

/// Which staging region sets the GPU implementations exchange with the host.
enum class StagingKind {
    None,
    MpiHalo,   ///< §IV-F/G: six MPI halo planes in, boundary slabs out
    BoxShell,  ///< §IV-H/I: CPU shell in, GPU block boundary out
};

/// How the final state is assembled after the timed loop.
enum class Finalize {
    HostState,    ///< host `cur` already holds the state (A..D)
    DeviceState,  ///< download the whole device field (E..G)
    BlockMerge,   ///< download the device block into the host walls (H, I)
};

/// The per-step plan of one implementation.
struct StepPlan {
    std::string impl_id;
    /// Task-local interior extents the plan was built for (fuse validation
    /// and diagnostics).
    core::Extents3 local{};
    /// Temporal-blocking fuse factor: each run_step() advances the state by
    /// `fuse` time steps from halos `fuse` deep, exchanged once. 1 = the
    /// classic plans, unchanged.
    int fuse = 1;
    /// Open-face bitmask of the *local* block (bit 2*dim = low face of dim,
    /// bit 2*dim+1 = high face; see core::Scenario::open_faces restricted
    /// to the faces this rank touches). 0 = all-periodic, the pinned
    /// default: the plan is then byte-identical to the pre-scenario IR.
    /// Requires fuse == 1.
    unsigned open_faces = 0;
    /// Variable-coefficient scenario: Stencil/KernelStencil tasks read the
    /// per-cell coefficient cache instead of the single constant table.
    /// Requires fuse == 1 (builders throw FuseGeometryError otherwise).
    bool var_coeff = false;
    Mode mode = Mode::HostIssue;
    bool uses_comm = false;   ///< runs under msg ranks with a HaloExchange
    bool uses_gpu = false;    ///< needs a device (+ staging, streams)
    bool resident = false;    ///< §IV-E: one device, whole-domain field
    bool mirror_only = false; ///< §IV-F/G: single host shell-mirror field
    int streams = 0;          ///< device streams the step issues to
    StagingKind staging = StagingKind::None;
    Finalize finalize = Finalize::HostState;
    std::vector<Task> tasks;  ///< host issue order; deps point backward
    int terminal = -1;        ///< index of the step-terminal task

    /// Structural validation: unique names, dependencies resolvable and
    /// acyclic (they must point to earlier tasks), terminal in range, every
    /// task's lane claimed from a resource the plan declares (gpu/pcie lanes
    /// require uses_gpu, nic requires uses_comm), and per-task fuse factors
    /// consistent with the plan's. The Copy flip's precondition: at most one
    /// Copy task, and every task touching host state (Stencil, HaloFill,
    /// BoundaryFill, PackSend, Unpack, MasterExchange, HostPack, HostUnpack)
    /// is its ancestor or descendant, so no issue order the executor may
    /// draw puts it on the wrong side of the flip. Returns an empty string
    /// when valid, else a description of the first defect.
    [[nodiscard]] std::string validate_error() const;

    /// Fuse-vs-geometry validation: a fuse factor whose deepened halo
    /// exceeds the local box extent cannot be exchanged (the send slabs of
    /// opposite faces would overlap). Returns an empty string when the
    /// geometry carries the fuse factor, else a description naming the box.
    [[nodiscard]] std::string fuse_geometry_error() const;

    /// Index of the named task, -1 if absent.
    [[nodiscard]] int find(const std::string& name) const;
};

/// Throwing wrapper, mirroring the DES engine's contract: FuseGeometryError
/// for a fuse factor the local box cannot carry, std::logic_error for
/// structural defects.
void validate(const StepPlan& plan);

}  // namespace advect::plan
