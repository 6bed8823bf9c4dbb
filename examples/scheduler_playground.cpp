// Scheduler playground: drives the discrete-event simulator through the
// paper's illustrative scenarios so the scheduling behaviour can be seen
// directly in the terminal.
//
//  1. The Fig. 5 worked example (1 GPU + 3 SSE cores, 20 equal tasks):
//     Gantt charts with and without the workload-adjustment mechanism
//     (14 s vs 18 s).
//  2. A non-dedicated run (Fig. 8 flavour): local load hits one core
//     mid-run and PSS re-weights.
//  3. Dynamic membership (future work in the paper): a node leaves
//     mid-run and another joins late.

#include <iostream>

#include "obs/sched_log.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/str.hpp"

using namespace swh;

namespace {

sim::PeModelSpec flat_pe(std::string label, core::PeKind kind,
                         double gcups) {
    sim::PeModelSpec pe;
    pe.label = std::move(label);
    pe.kind = kind;
    pe.peak_gcups = gcups;
    return pe;
}

sim::SimConfig figure5(bool adjust) {
    sim::SimConfig cfg;
    cfg.sched.workload_adjust = adjust;
    cfg.sched.replicate_only_if_faster = true;
    cfg.policy = core::make_pss;
    cfg.notify_period_s = 0.25;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths.assign(20, 6'000);  // 1 s per task on the GPU
    cfg.pes = {flat_pe("GPU1", core::PeKind::Gpu, 6.0),
               flat_pe("SSE1", core::PeKind::SseCore, 1.0),
               flat_pe("SSE2", core::PeKind::SseCore, 1.0),
               flat_pe("SSE3", core::PeKind::SseCore, 1.0)};
    return cfg;
}

}  // namespace

int main() {
    // ---- Scenario 1: paper Fig. 5 ---------------------------------------
    for (const bool adjust : {true, false}) {
        const sim::SimReport r = sim::simulate(figure5(adjust));
        std::cout << "== Fig. 5 scenario, workload adjustment "
                  << (adjust ? "ON" : "OFF") << " ==\n"
                  << obs::render_trace_gantt(r.trace, 0.5)
                  << "application completed at "
                  << format_double(r.makespan, 1) << " s ("
                  << r.replicas_issued << " replicas)\n\n";
    }

    // ---- Scenario 2: non-dedicated execution ----------------------------
    {
        sim::SimConfig cfg;
        cfg.policy = core::make_pss;
        cfg.notify_period_s = 0.5;
        cfg.db_residues = 10'000'000;
        cfg.query_lengths.assign(40, 1'000);
        for (int i = 0; i < 4; ++i) {
            cfg.pes.push_back(flat_pe("Core" + std::to_string(i),
                                      core::PeKind::SseCore, 2.0));
        }
        cfg.load_events = {sim::LoadEvent{20.0, 0, 0.5}};
        const sim::SimReport r = sim::simulate(cfg);
        std::cout << "== Non-dedicated run: Core0 loses half its speed at "
                     "t=20 s ==\n";
        std::cout << "delivered GCUPS per core (notification samples):\n";
        double t_cursor = 0.0;
        for (const obs::WeightSample& s : obs::weight_samples(r.trace)) {
            if (s.pe != 0) continue;
            if (s.t - t_cursor < 5.0) continue;  // subsample prints
            t_cursor = s.t;
            std::cout << "  t=" << format_double(s.t, 1) << "s  Core0 "
                      << format_double(s.realised_cps / 1e9, 2)
                      << " GCUPS\n";
        }
        std::cout << "makespan " << format_double(r.makespan, 1) << " s\n\n";
    }

    // ---- Scenario 3: dynamic membership ---------------------------------
    {
        sim::SimConfig cfg;
        cfg.policy = core::make_pss;
        cfg.db_residues = 10'000'000;
        cfg.query_lengths.assign(30, 1'000);
        cfg.pes = {flat_pe("A", core::PeKind::SseCore, 2.0),
                   flat_pe("B", core::PeKind::SseCore, 2.0)};
        cfg.leave_events = {sim::LeaveEvent{10.0, 1}};
        cfg.join_events = {
            sim::JoinEvent{20.0, flat_pe("GPUlate", core::PeKind::Gpu, 8.0)}};
        const sim::SimReport r = sim::simulate(cfg);
        std::cout << "== Dynamic membership: B leaves at t=10, a GPU joins "
                     "at t=20 ==\n";
        for (const sim::PeReport& pe : r.pes) {
            std::cout << "  " << pe.label << ": accepted "
                      << pe.results_accepted << ", aborted "
                      << pe.tasks_aborted << ", busy "
                      << format_double(pe.busy_seconds, 1) << " s\n";
        }
        std::cout << "makespan " << format_double(r.makespan, 1) << " s\n";
    }
    return 0;
}
