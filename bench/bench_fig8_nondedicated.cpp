// Reproduces Fig. 8: the non-dedicated run. Same setup as Fig. 7 (4 SSE
// cores, Ensembl Dog), but 60 s into the run a compute-intensive local
// job (the paper used superpi) halves core 0's delivered rate. Paper
// anchors: core 0's GCUPS drop to less than half after t=60 s; wallclock
// grows by ~12.1% even though ~15% of the remaining capacity was lost —
// PSS re-weights and the adjustment mechanism absorbs the tail.

#include <iostream>

#include "bench_common.hpp"
#include "obs/sched_log.hpp"

using namespace swh;

int main() {
    sim::SimConfig dedicated =
        bench::paper_config(db::preset_by_name("dog"), 0, 4);
    dedicated.notify_period_s = 2.0;
    const sim::SimReport base = sim::simulate(dedicated);

    // The paper's superpi reduced core 0's delivered rate "to less than
    // a half".
    sim::SimConfig loaded = dedicated;
    loaded.load_events = {sim::LoadEvent{60.0, 0, 0.45}};
    const sim::SimReport r = sim::simulate(loaded);

    std::cout << "Fig. 8 — non-dedicated execution with 4 cores, local "
                 "load at core 0 from t=60 s\n"
              << "dedicated wallclock:      "
              << format_double(base.makespan, 1) << " s\n"
              << "non-dedicated wallclock:  " << format_double(r.makespan, 1)
              << " s  (+"
              << format_double(
                     (r.makespan - base.makespan) / base.makespan * 100.0, 1)
              << "%, paper: +12.1%)\n\n";

    std::cout << "core 0 GCUPS samples (time,gcups):\n";
    for (const obs::WeightSample& s : obs::weight_samples(r.trace)) {
        if (s.pe != 0) continue;
        std::cout << format_double(s.t, 0) << ','
                  << format_double(s.realised_cps / 1e9, 3) << '\n';
    }
    return 0;
}
