// Reproduces Fig. 5: the worked 20-task example on 1 GPU (6x) + 3 SSE
// cores, with and without the workload-adjustment mechanism. Expected:
// 14 s with the mechanism (the GPU re-runs straggler t20), 18 s without.

#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "obs/balance.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"

using namespace swh;

namespace {

sim::SimConfig figure5(bool adjust) {
    sim::SimConfig cfg;
    cfg.sched.workload_adjust = adjust;
    // Fig. 5 shows the idle (equally slow) SSEs NOT re-running t20; only
    // the faster GPU does, so gate replication on expected speedup.
    cfg.sched.replicate_only_if_faster = true;
    cfg.policy = core::make_pss;
    cfg.notify_period_s = 0.25;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths.assign(20, 6'000);  // 1 s per task on the GPU
    sim::PeModelSpec gpu;
    gpu.label = "GPU1";
    gpu.kind = core::PeKind::Gpu;
    gpu.peak_gcups = 6.0;
    cfg.pes.push_back(gpu);
    for (int i = 1; i <= 3; ++i) {
        sim::PeModelSpec sse;
        sse.label = "SSE" + std::to_string(i);
        sse.kind = core::PeKind::SseCore;
        sse.peak_gcups = 1.0;
        cfg.pes.push_back(sse);
    }
    return cfg;
}

}  // namespace

int main(int argc, char** argv) {
    ArgParser args("bench_fig5_gantt",
                   "Reproduces the paper's Fig. 5 worked example");
    args.add_option("trace",
                    "also write the WITH-adjustment run as Chrome "
                    "trace-event JSON (open at ui.perfetto.dev)",
                    "");
    args.add_flag("balance",
                  "print the workload-balance audit for both runs "
                  "(per-PE busy/idle/comm, imbalance, critical path)");
    try {
        if (!args.parse(argc, argv)) return 0;
        std::ofstream trace_file = open_output(args, "trace");

        for (const bool adjust : {true, false}) {
            const sim::SimReport r = sim::simulate(figure5(adjust));
            std::cout << "Fig. 5" << (adjust ? "(a) WITH" : "(b) WITHOUT")
                      << " the load adjustment mechanism — total "
                      << format_double(r.makespan, 0) << " s (paper: "
                      << (adjust ? 14 : 18) << " s)\n"
                      << obs::render_trace_gantt(r.trace, 0.5) << '\n';
            if (args.get_flag("balance")) {
                std::cout << obs::analyze_balance(r.trace,
                                                  sim::balance_options(r))
                                 .to_text()
                          << '\n';
            }
            if (adjust && trace_file.is_open()) {
                obs::export_chrome_json(r.trace, trace_file);
                std::cout << "trace written to " << args.get("trace")
                          << '\n';
            }
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
