#include "model/machine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/json.hpp"

namespace advect::model {

double MachineSpec::task_bw_gbs(int threads) const {
    const double per_core = socket_bw_gbs / cores_per_socket;
    double bw = per_core * threads;
    if (threads > cores_per_socket) bw *= numa_penalty;
    return bw;
}

double MachineSpec::region_overhead_s(int threads) const {
    if (threads <= 1) return 0.0;
    return omp_region_us * 1e-6 * std::log2(static_cast<double>(threads));
}

MachineSpec MachineSpec::jaguarpf() {
    MachineSpec m;
    m.name = "JaguarPF (Cray XT5)";
    m.nodes = 18688;
    m.memory_per_node_gb = 16;
    m.sockets_per_node = 2;
    m.cores_per_socket = 6;
    m.clock_ghz = 2.6;
    m.interconnect = "Cray SeaStar 2+";
    m.mpi_name = "Cray MPT 4.0.0";
    m.core_gf = 1.10;        // 2.6 GHz Istanbul, scalar PGI stencil
    m.socket_bw_gbs = 10.5;  // DDR2-800, 2 channels
    m.omp_region_us = 3.0;
    m.net_alpha_us = 6.0;    // SeaStar 2+ MPI latency
    m.net_bw_gbs = 1.6;      // per-node injection
    m.intra_node_bw_gbs = 1.2;
    m.boundary_eff = 0.85;
    // SeaStar-era MPT progresses little without MPI calls; cf. White &
    // Bova, "Where's the overlap?" [1].
    m.mpi_progress = 0.50;
    return m;
}

MachineSpec MachineSpec::hopper2() {
    MachineSpec m;
    m.name = "Hopper II (Cray XE6)";
    m.nodes = 6392;
    m.memory_per_node_gb = 32;
    m.sockets_per_node = 2;
    m.cores_per_socket = 12;  // two 6-core dies per Magny-Cours socket
    m.clock_ghz = 2.1;
    m.interconnect = "Cray Gemini";
    m.mpi_name = "Cray MPT 5.1.3";
    m.core_gf = 0.92;
    m.socket_bw_gbs = 17.0;  // DDR3-1333
    m.omp_region_us = 1.2;   // lightweight XE6 OpenMP runtime
    m.numa_penalty = 0.80;   // 4 NUMA domains per node
    m.net_alpha_us = 1.6;    // Gemini
    m.net_bw_gbs = 3.5;
    m.intra_node_bw_gbs = 1.6;
    // Gemini offloads transfers via its DMA block-transfer engine: much
    // better independent progress than SeaStar.
    m.mpi_progress = 0.92;
    m.overlap_call_us = 0.5;  // MPT 5 on Gemini: lightweight request path
    m.boundary_eff = 0.9;     // large caches absorb the separate pass
    return m;
}

MachineSpec MachineSpec::lens() {
    MachineSpec m;
    m.name = "Lens (Opteron + Tesla C1060)";
    m.nodes = 31;
    m.memory_per_node_gb = 64;
    m.sockets_per_node = 4;
    m.cores_per_socket = 4;
    m.clock_ghz = 2.3;
    m.interconnect = "DDR Infiniband";
    m.mpi_name = "OpenMPI 1.3.3";
    m.core_gf = 0.78;       // Barcelona (K10) at 2.3 GHz, pre-Istanbul
    m.socket_bw_gbs = 8.0;  // Barcelona-era DDR2
    m.omp_region_us = 2.0;  // 4 sockets
    m.numa_penalty = 0.80;
    m.net_alpha_us = 5.0;
    m.net_bw_gbs = 1.3;  // DDR IB
    m.intra_node_bw_gbs = 0.9;
    m.mpi_progress = 0.30;  // OpenMPI 1.3 without progress thread
    m.gpus_per_node = 1;
    GpuModel g;
    g.props = gpu::DeviceProps::tesla_c1060();
    g.stencil_gf = 50.0;    // cc 1.3 dp stencil (dp peak 78 GF)
    g.face_eff = 0.22;      // simple face kernels fare better vs the slow base
    g.mem_bw_gbs = 42.0;    // of 102 GB/s peak, stencil pattern
    g.shared_per_sm = 16.0 * 1024;
    g.warps_needed = 12.0;
    g.sync_penalty = 0.25;
    g.launch_us = 9.0;
    g.pcie_lat_us = 25.0;
    g.pcie_bw_gbs = 1.1;    // decoupled pageable staging (4-socket chipset)
    g.pcie_coupled_eff = 0.16;
    g.host_stage_bw_gbs = 2.2;
    m.gpu = g;
    return m;
}

MachineSpec MachineSpec::yona() {
    MachineSpec m;
    m.name = "Yona (Opteron + Tesla C2050)";
    m.nodes = 16;
    m.memory_per_node_gb = 32;
    m.sockets_per_node = 2;
    m.cores_per_socket = 6;
    m.clock_ghz = 2.6;
    m.interconnect = "QDR Infiniband";
    m.mpi_name = "OpenMPI 1.7a1";
    m.core_gf = 1.10;
    m.socket_bw_gbs = 11.0;
    m.omp_region_us = 1.5;
    m.net_alpha_us = 2.5;
    m.net_bw_gbs = 2.8;  // QDR IB
    m.intra_node_bw_gbs = 0.55;
    m.mpi_progress = 0.40;
    m.gpus_per_node = 1;
    GpuModel g;
    g.props = gpu::DeviceProps::tesla_c2050();
    g.stencil_gf = 140.0;   // cc 2.0 dp stencil (dp peak 515 GF)
    g.mem_bw_gbs = 66.0;    // of 144 GB/s peak, ECC on, stencil pattern
    g.shared_per_sm = 48.0 * 1024;
    g.warps_needed = 20.0;
    g.sync_penalty = 0.25;
    g.launch_us = 6.0;
    g.pcie_lat_us = 12.0;
    g.pcie_bw_gbs = 1.6;    // "faster PCIe bus" than Lens; decoupled staging
    g.pcie_coupled_eff = 0.135;
    g.host_stage_bw_gbs = 3.0;
    m.gpu = g;
    return m;
}

MachineSpec MachineSpec::localhost() {
    MachineSpec m;
    m.name = "localhost (nominal)";
    m.nodes = 1;
    m.memory_per_node_gb = 16;
    m.sockets_per_node = 1;
    const unsigned hw = std::thread::hardware_concurrency();
    m.cores_per_socket = hw > 0 ? static_cast<int>(hw) : 4;
    m.clock_ghz = 3.0;
    m.interconnect = "shared memory";
    m.mpi_name = "advect::msg";
    // Nominal modern-host rates; calibrate_localhost overwrites the CPU
    // side from measured BENCH_kernels.json numbers. The vectorized row
    // kernel runs far above the 2010-era scalar rates of Table II.
    m.core_gf = 20.0;
    m.socket_bw_gbs = 15.0;
    m.omp_region_us = 1.0;
    m.net_alpha_us = 2.0;
    m.net_bw_gbs = 4.0;
    m.intra_node_bw_gbs = 4.0;
    m.mpi_progress = 0.80;
    m.overlap_call_us = 0.5;
    // The executor runs Step 3 as a buffer flip, not the paper's copy.
    m.copy_bytes_per_point = 0.0;
    // The simulated GPU (docs/ARCHITECTURE.md) executes on host threads;
    // price it like the C2050 it models so GPU-implementation jobs are
    // admittable on a host with no physical device.
    m.gpus_per_node = 1;
    GpuModel g;
    g.props = gpu::DeviceProps::tesla_c2050();
    g.stencil_gf = 140.0;
    g.mem_bw_gbs = 66.0;
    g.shared_per_sm = 48.0 * 1024;
    g.warps_needed = 20.0;
    g.sync_penalty = 0.25;
    g.launch_us = 6.0;
    g.pcie_lat_us = 12.0;
    g.pcie_bw_gbs = 1.6;
    g.pcie_coupled_eff = 0.135;
    g.host_stage_bw_gbs = 3.0;
    m.gpu = g;
    return m;
}

namespace {

namespace json = core::json;

/// Largest-argument series entry: "BM_StencilSweep/64" beats "/24". Returns
/// nullptr when the series is absent. Exact-prefix match per
/// record_bench.py: "BM_StencilSweep/..." does not match
/// "BM_StencilSweepFused/...".
const json::Value* best_series_entry(const json::Value& benchmarks,
                                     const std::string& series,
                                     std::string* best_name = nullptr) {
    const json::Value* best = nullptr;
    long best_arg = -1;
    for (const auto& [name, v] : benchmarks.members) {
        if (name.rfind(series + "/", 0) != 0 && name != series) continue;
        long arg = 0;
        if (name.size() > series.size() + 1)
            arg = std::strtol(name.c_str() + series.size() + 1, nullptr, 10);
        if (arg > best_arg) {
            best_arg = arg;
            best = &v;
            if (best_name != nullptr) *best_name = name;
        }
    }
    return best;
}

double items_per_second(const json::Value& entry, const std::string& origin,
                        const std::string& key) {
    const json::Value* v = entry.find("items_per_second");
    if (v == nullptr)
        json::bad_key(origin, key, "missing items_per_second");
    return json::require_number(*v, origin, key + ".items_per_second");
}

}  // namespace

void calibrate_localhost(MachineSpec& m, const std::string& text,
                         const std::string& origin) {
    const json::Value doc = json::parse(text, origin);
    const json::Value* entries = doc.find("entries");
    if (entries == nullptr || entries->kind != json::Value::Kind::Array ||
        entries->items.empty())
        json::bad_key(origin, "entries", "expected a non-empty array");
    const json::Value& latest = entries->items.back();
    const json::Value* benchmarks = latest.find("benchmarks");
    if (benchmarks == nullptr ||
        benchmarks->kind != json::Value::Kind::Object)
        json::bad_key(origin, "entries[last].benchmarks",
                      "expected an object");

    std::string label = "?";
    if (const json::Value* l = latest.find("label");
        l != nullptr && l->kind == json::Value::Kind::String)
        label = l->str;

    // Per-core stencil rate: the single-threaded sweep's points/s at the
    // paper's 53 flops/point.
    const json::Value* sweep =
        best_series_entry(*benchmarks, "BM_StencilSweep");
    if (sweep == nullptr)
        json::bad_key(origin, "entries[last].benchmarks",
                      "missing tracked series BM_StencilSweep");
    m.core_gf =
        items_per_second(*sweep, origin, "BM_StencilSweep") * 53.0e-9;

    // Fused rate: point-updates/s of the best measured fuse factor at the
    // largest grid — the effective per-core rate fused super-steps are
    // priced at (0 would fall back to core_gf).
    double fused_best = 0.0;
    for (const auto& [name, v] : benchmarks->members) {
        if (name.rfind("BM_StencilSweepFused/", 0) != 0) continue;
        const json::Value* ips = v.find("items_per_second");
        if (ips == nullptr) continue;
        fused_best = std::max(
            fused_best, json::require_number(*ips, origin,
                                             name + ".items_per_second"));
    }
    if (fused_best > 0.0) m.fused_core_gf = fused_best * 53.0e-9;

    // Streaming copy rate: BM_CopyRows moves 16 B/point (read + write), the
    // paper machines' copy_bytes_per_point accounting.
    if (const json::Value* copy =
            best_series_entry(*benchmarks, "BM_CopyRows");
        copy != nullptr)
        m.socket_bw_gbs =
            items_per_second(*copy, origin, "BM_CopyRows") * 16.0e-9;

    if (const json::Value* ncpu = latest.find("num_cpus");
        ncpu != nullptr && ncpu->kind == json::Value::Kind::Number &&
        ncpu->num >= 1.0) {
        m.sockets_per_node = 1;
        m.cores_per_socket = static_cast<int>(ncpu->num);
    }
    m.name = "localhost (calibrated: " + label + ")";
}

MachineSpec localhost_from_bench(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    if (!f) throw std::runtime_error("model: cannot read " + path);
    std::ostringstream text;
    text << f.rdbuf();
    MachineSpec m = MachineSpec::localhost();
    calibrate_localhost(m, text.str(), path);
    return m;
}

std::vector<int> MachineSpec::threads_per_task_choices() const {
    // The paper measures 1, 2, 3, 6, 12 on JaguarPF/Yona; 1, 2, 3, 6, 12, 24
    // on Hopper II; 1, 2, 4, 8, 16 on Lens — i.e. 1, 2, then the divisor
    // ladder of the node's core count through powers of two of the socket
    // size.
    std::vector<int> out;
    const int cpn = cores_per_node();
    for (int t = 1; t <= cpn; ++t) {
        if (cpn % t != 0) continue;
        // 1, 2, 3 and whole multiples of the 6-core die (Cray/Yona), or the
        // power-of-two ladder on Lens's 4-core sockets.
        const bool die6 = cpn % 6 == 0;
        if (die6 ? (t <= 3 || t % 6 == 0) : ((t & (t - 1)) == 0))
            out.push_back(t);
    }
    return out;
}

}  // namespace advect::model
