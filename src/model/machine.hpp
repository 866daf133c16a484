#pragma once
/// \file machine.hpp
/// Models of the four machines in the paper's Table II. Each model carries
/// (a) the published hardware facts and (b) a small set of calibrated
/// effective rates. The calibration targets are the paper's own numbers and
/// qualitative findings — see EXPERIMENTS.md §Calibration for the anchor
/// table (e.g. Yona single node: 86 GF GPU-resident, 24 GF GPU+bulk MPI,
/// 35 GF GPU+stream overlap, 82 GF CPU-GPU full overlap).

#include <optional>
#include <vector>
#include <string>

#include "gpu/types.hpp"

namespace advect::model {

/// GPU performance model (C1060 on Lens, C2050 on Yona).
struct GpuModel {
    gpu::DeviceProps props;

    /// Calibrated effective issue rate of the tiled stencil kernel at full
    /// occupancy (GF); folds instruction mix, shared-memory traffic and
    /// dual-issue limits. Scaled down by thread/occupancy/wave efficiencies
    /// computed from block geometry.
    double stencil_gf = 100.0;
    /// Effective global-memory bandwidth for the kernel's access pattern
    /// (GB/s); the memory side of the kernel roofline.
    double mem_bw_gbs = 55.0;
    /// Shared memory per SM (bytes) for occupancy computation.
    double shared_per_sm = 48.0 * 1024;
    /// Warps per SM needed to hide memory latency.
    double warps_needed = 20.0;
    /// Throughput penalty when only one block fits per SM (tile-load
    /// synchronization cannot overlap another block): efficiency is
    /// 1 - sync_penalty / blocks_per_sm.
    double sync_penalty = 0.25;
    /// Issue efficiency when the tile row is narrower than a warp: a warp
    /// then spans two tile rows, so global loads split across lines and the
    /// 27 shared-memory reads per point hit bank conflicts.
    double narrow_row_eff = 0.60;
    /// Efficiency of the specialized boundary-face kernels (§IV-F defines
    /// separate kernels per face pair) relative to the peak issue rate:
    /// little parallelism per z-iteration and strided access.
    double face_eff = 0.10;
    /// Per kernel-launch overhead (µs).
    double launch_us = 6.0;
    /// Host<->device transfer: latency (µs) and effective bandwidth (GB/s).
    /// Effective PCIe bandwidth is calibrated to the paper's §V-E anchors
    /// and is far below nominal: the 2010-era PGI CUDA Fortran stack moved
    /// pageable host buffers, and the F/G implementations stage per-face
    /// buffers each step (see EXPERIMENTS.md).
    double pcie_lat_us = 12.0;
    double pcie_bw_gbs = 0.60;
    /// Bandwidth multiplier for *coupled* staging (§IV-F/G): transfers
    /// interleaved with MPI and per-step synchronizations inside the
    /// exchange path run far below the decoupled rate. The paper's own
    /// conclusion attributes §IV-I's win to "decoupling the MPI
    /// communication from the CPU-GPU communication"; this factor is
    /// calibrated against the §V-E anchors (24/35 GF vs 82 GF).
    double pcie_coupled_eff = 0.40;
    /// Per-operation penalty (µs) when several MPI tasks share one GPU:
    /// pre-MPS CUDA serializes contexts, and switching between them on
    /// every kernel/copy is expensive (§IV-F: tasks per GPU is tunable).
    double ctx_switch_us = 8000.0;
    /// Host-side throughput for packing/unpacking staging buffers (GB/s).
    double host_stage_bw_gbs = 3.0;
};

/// One machine from Table II plus calibrated rates.
struct MachineSpec {
    // --- Table II facts -----------------------------------------------
    std::string name;
    int nodes = 1;
    int memory_per_node_gb = 16;
    int sockets_per_node = 2;
    int cores_per_socket = 6;
    double clock_ghz = 2.6;
    std::string interconnect;
    std::string mpi_name;
    int gpus_per_node = 0;
    std::optional<GpuModel> gpu;

    // --- calibrated CPU rates ------------------------------------------
    /// Per-core achievable stencil flop rate (GF): scalar FPU throughput of
    /// the 27-point loop under the PGI compiler of the era.
    double core_gf = 1.1;
    /// Sustainable memory bandwidth per socket (GB/s), shared by its cores.
    double socket_bw_gbs = 11.0;
    /// Bandwidth multiplier when one task's threads span sockets.
    double numa_penalty = 0.85;
    /// Per-parallel-region overhead at 2 threads (µs); scales ~log2(T).
    double omp_region_us = 1.5;
    /// Cost per guided-schedule chunk claim (µs).
    double guided_chunk_us = 1.0;
    /// Relative compute rate of OpenMP-threaded loops vs the pure-MPI
    /// single-thread loop (collapse(2) codegen, first-touch locality,
    /// barrier jitter): why pure MPI wins when communication is cheap.
    double omp_loop_eff = 0.93;
    /// Per-core rate (GF) of the *temporally fused* stencil sweep, when
    /// measured separately (docs/PERF.md "Temporal blocking"): the fused
    /// wavefront's register chain issues faster per evaluation than the
    /// plain sweep, so pricing fused super-steps at core_gf overestimates
    /// their cost. 0 (the paper machines' default, where no such
    /// measurement exists) means "use core_gf", keeping the Table II models
    /// bit-for-bit unchanged; MachineSpec::localhost() calibration fills it
    /// from the measured BM_StencilSweepFused rate.
    double fused_core_gf = 0.0;
    /// Relative compute rate of a guided-scheduled sweep vs a static one
    /// (chunks jump around the domain, hurting cache/TLB locality); the
    /// reason §IV-D "consistently lags" (§V-A).
    double guided_eff = 0.75;
    /// Compute-rate multiplier when one task's threads span sockets.
    double cross_socket_eff = 0.96;
    /// Relative rate of the separate boundary-point pass (strided slabs and
    /// pencils; < 1 penalises §IV-C/D versus the fused bulk pass).
    double boundary_eff = 0.8;
    /// Bytes per point of the Step 3 new-to-current copy (§IV-A). The
    /// paper's CPU implementations copy (16 B/pt: read + write), so the four
    /// Table II machines keep 16 and every modelled figure stays the
    /// paper's; its GPU kernels flip arguments instead. localhost() sets 0
    /// because this runtime's executor flips the host fields too (plan
    /// Op::Copy): admission and `advectctl plan` then price what runs.
    /// bench_ablation_copy sets 0 on a paper machine to model the swap.
    double copy_bytes_per_point = 16.0;

    // --- calibrated network rates ---------------------------------------
    /// Point-to-point latency alpha (µs) per message.
    double net_alpha_us = 6.0;
    /// Injection bandwidth per node NIC (GB/s), shared by the node's tasks.
    double net_bw_gbs = 1.6;
    /// Intra-node (shared-memory transport) MPI bandwidth (GB/s).
    double intra_node_bw_gbs = 0.55;
    /// Fraction of a message's transfer that progresses while the host
    /// computes between MPI calls (the "where's the overlap?" factor [1]);
    /// depends on the MPI stack and NIC offload capability.
    double mpi_progress = 0.45;
    /// CPU cost (µs) to re-enter the MPI stack per request at completion
    /// time (cold request state, queue scans in waitall): paid by the
    /// nonblocking-overlap implementations per message on top of alpha.
    double overlap_call_us = 3.0;

    // --- derived ---------------------------------------------------------
    [[nodiscard]] int cores_per_node() const {
        return sockets_per_node * cores_per_socket;
    }
    [[nodiscard]] int total_cores() const { return nodes * cores_per_node(); }
    /// Memory bandwidth available to one task running `threads` threads.
    [[nodiscard]] double task_bw_gbs(int threads) const;
    /// Per-parallel-region overhead (seconds) for a team of `threads`.
    [[nodiscard]] double region_overhead_s(int threads) const;

    /// The four machines of Table II.
    [[nodiscard]] static MachineSpec jaguarpf();
    [[nodiscard]] static MachineSpec hopper2();
    [[nodiscard]] static MachineSpec lens();
    [[nodiscard]] static MachineSpec yona();

    /// The machine running this process, with nominal modern-host rates and
    /// the core count taken from the OS. The admission cost oracle and the
    /// DES price service jobs against this spec; calibrate it against the
    /// measured kernel rates with calibrate_localhost below so modelled GF,
    /// measured GF and tuner predictions share units (docs/SERVICE.md
    /// §admission).
    [[nodiscard]] static MachineSpec localhost();

    /// OpenMP threads-per-task values measured in the paper for this
    /// machine (§V-A/B): divisors of the core count per node that the paper
    /// lists.
    [[nodiscard]] std::vector<int> threads_per_task_choices() const;
};

/// Overwrite `m`'s calibrated CPU rates from the latest entry of a
/// BENCH_kernels.json trajectory (tools/record_bench.py): core_gf from the
/// measured BM_StencilSweep rate, fused_core_gf from the best measured
/// BM_StencilSweepFused rate, socket_bw_gbs from the BM_CopyRows streaming
/// rate, and the socket/core split from the recorded num_cpus. `text` is
/// the file's JSON; `origin` names it in errors. Throws
/// std::invalid_argument when the document does not look like a trajectory
/// or the latest entry lacks the tracked series.
void calibrate_localhost(MachineSpec& m, const std::string& text,
                         const std::string& origin);

/// localhost() calibrated from a trajectory file; a missing or unreadable
/// file throws std::runtime_error (callers that want to run uncalibrated
/// catch it and keep the nominal spec).
[[nodiscard]] MachineSpec localhost_from_bench(const std::string& path);

}  // namespace advect::model
