// Ablation: ready-queue ordering vs the workload-adjustment mechanism.
// The straggler tail the mechanism absorbs is largely *created* by
// handing the biggest tasks out last (the query file is sorted by
// length). Largest-first (LPT) dispatch, the scheduler's default,
// attacks the same problem from the other side — this bench quantifies
// how the two interact in the DES on the SwissProt 4 GPU + 4 SSE
// platform.

#include <iostream>

#include "bench_common.hpp"

using namespace swh;

int main() {
    const db::DatabasePreset& swiss = db::preset_by_name("swissprot");
    std::cout << "Ordering ablation — SwissProt on 4 GPUs + 4 SSEs, "
                 "wallclock (s)\n\n";
    TextTable table({"ready order", "w/o adjustment", "w/ adjustment",
                     "adjust gain"});
    for (const core::ReadyOrder order :
         {core::ReadyOrder::FifoById, core::ReadyOrder::LargestFirst}) {
        double t_off = 0.0, t_on = 0.0;
        for (const bool adjust : {false, true}) {
            sim::SimConfig cfg = bench::paper_config(swiss, 4, 4, adjust);
            cfg.sched.ready_order = order;
            const double t = sim::simulate(cfg).makespan;
            (adjust ? t_on : t_off) = t;
        }
        table.add_row(
            {order == core::ReadyOrder::FifoById ? "file order (paper)"
                                                 : "largest-first (LPT)",
             format_double(t_off, 1), format_double(t_on, 1),
             format_double((t_off / t_on - 1.0) * 100.0, 1) + "%"});
    }
    table.print(std::cout);
    std::cout << "\nReading: on a *heterogeneous* platform LPT backfires "
                 "without the mechanism — the blind first-allocation "
                 "round hands the biggest task to a slow SSE core, which "
                 "then anchors the tail. With the mechanism on, both "
                 "orderings land within a few percent in the DES. On the "
                 "threaded runtime LPT still pays (EXPERIMENTS.md), which "
                 "is why it is the scheduler's default.\n";
    return 0;
}
