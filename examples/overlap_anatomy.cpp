/// \file overlap_anatomy.cpp
/// Where does a time step's time go? Print the modelled per-resource
/// utilization of every implementation on one machine — making the
/// paper's overlap story visible: bulk-synchronous implementations leave
/// most resources idle most of the step, while the full-overlap
/// implementation (§IV-I) keeps CPU, NIC, PCIe and GPU busy concurrently
/// ("it may overlap more than two types of operation", §IV-I).
///
/// The second half replays the same story from *real* execution: it runs
/// the §IV-F (bulk-synchronous) and §IV-I (full-overlap) implementations at
/// a small size with runtime tracing on, writes Chrome trace-event JSON for
/// both the modelled and the measured schedules (load them in
/// chrome://tracing or Perfetto), and prints the measured overlap summary
/// next to the modelled one.
///
/// Usage: overlap_anatomy [jaguarpf|hopper2|lens|yona] [nodes]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "impl/harness.hpp"
#include "impl/registry.hpp"
#include "sched/report.hpp"
#include "sched/sweeps.hpp"
#include "trace/export.hpp"
#include "trace/span.hpp"

namespace core = advect::core;
namespace impl = advect::impl;
namespace model = advect::model;
namespace sched = advect::sched;
namespace trace = advect::trace;

namespace {

void write_json(const std::string& path, const std::string& json) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("  wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const std::string name = argc > 1 ? argv[1] : "yona";
    const int nodes = argc > 2 ? std::atoi(argv[2]) : 1;
    model::MachineSpec m = model::MachineSpec::yona();
    if (name == "jaguarpf") m = model::MachineSpec::jaguarpf();
    else if (name == "hopper2") m = model::MachineSpec::hopper2();
    else if (name == "lens") m = model::MachineSpec::lens();

    const sched::Code codes[] = {sched::Code::B, sched::Code::C,
                                 sched::Code::D, sched::Code::E,
                                 sched::Code::F, sched::Code::G,
                                 sched::Code::H, sched::Code::I};

    std::printf("overlap anatomy on %s, %d node(s)\n", m.name.c_str(), nodes);
    std::printf("(best tuning per implementation; bars = modelled busy "
                "fraction per step)\n\n");

    for (auto c : codes) {
        // Take the best tuning from the sweeps layer, then report it.
        const int nn[] = {nodes};
        const auto best = sched::best_series(c, m, nn)[0];
        if (best.gf <= 0.0) continue;
        sched::RunConfig cfg;
        cfg.machine = m;
        cfg.nodes = nodes;
        cfg.threads_per_task = best.threads;
        if (best.box > 0) cfg.box_thickness = best.box;
        const auto report = sched::step_report(c, cfg);
        std::fputs(sched::format_report(c, cfg, report).c_str(), stdout);
        std::printf("\n");
    }
    std::printf("Note how the overlap factor climbs from the bulk-synchronous "
                "implementations\nto IV-I: that is the paper's thesis in one "
                "number.\n");

    // --- Part 2: the same timelines, measured instead of modelled --------
    struct RealCase {
        const char* id;
        sched::Code code;
    };
    const RealCase real_cases[] = {{"gpu_mpi_bulk", sched::Code::F},
                                   {"cpu_gpu_overlap", sched::Code::I}};

    impl::SolverConfig scfg;
    scfg.problem = core::AdvectionProblem::standard(24);
    scfg.steps = 6;
    scfg.ntasks = 4;
    scfg.threads_per_task = 2;
    scfg.block_x = 8;
    scfg.block_y = 4;
    scfg.box_thickness = 2;

    std::printf("\nmeasured timelines: %d^3 x %d steps, %d tasks x %d "
                "threads (real execution)\n",
                scfg.problem.domain.n, scfg.steps, scfg.ntasks,
                scfg.threads_per_task);
    for (const auto& rc : real_cases) {
        const auto& entry = impl::find_implementation(rc.id);
        trace::reset();
        trace::set_enabled(true);
        (void)impl::run_plan_solver(entry.id, scfg);
        trace::set_enabled(false);
        const auto measured = trace::snapshot();

        sched::RunConfig mcfg;
        mcfg.machine = m;
        mcfg.nodes = nodes;
        mcfg.box_thickness = scfg.box_thickness;
        const auto modelled = sched::step_spans(rc.code, mcfg, /*steps=*/2);

        std::printf("\n%s (%s), modelled vs measured through the same "
                    "exporter:\n",
                    entry.id.c_str(), entry.paper_section.c_str());
        write_json("overlap_anatomy_" + entry.id + ".model.json",
                   trace::to_chrome_json(modelled));
        write_json("overlap_anatomy_" + entry.id + ".real.json",
                   trace::to_chrome_json(measured));
        const auto mm = trace::summarize(modelled);
        const auto mr = trace::summarize(measured);
        std::printf("  modelled: overlap factor %.2f, nic+pcie concurrent "
                    "%.0f%%\n",
                    mm.overlap_factor,
                    mm.pair_fraction(trace::Lane::Nic, trace::Lane::Pcie) *
                        100.0);
        std::fputs(trace::format_summary(mr).c_str(), stdout);
        std::printf("  measured per-rank nic+pcie concurrency: %.0f%%\n",
                    trace::mean_rank_pair_fraction(measured, trace::Lane::Nic,
                                                   trace::Lane::Pcie) *
                        100.0);
    }
    std::printf("\nThe bulk-synchronous timeline serializes NIC and PCIe "
                "traffic; the full-overlap\ntimeline runs them concurrently "
                "— measured, not just modelled.\n");
    return 0;
}
