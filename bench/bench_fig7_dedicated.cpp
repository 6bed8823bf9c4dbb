// Reproduces Fig. 7: dedicated execution of the 40-query workload
// against Ensembl Dog on 4 SSE cores; per-core delivered GCUPS at each
// allocation/notification interaction. Paper shape: all four traces are
// flat at the core's nominal rate for the whole run.

#include <iostream>

#include "bench_common.hpp"
#include "obs/sched_log.hpp"

using namespace swh;

int main() {
    sim::SimConfig cfg =
        bench::paper_config(db::preset_by_name("dog"), 0, 4);
    cfg.notify_period_s = 2.0;
    const sim::SimReport r = sim::simulate(cfg);

    std::cout << "Fig. 7 — dedicated execution with 4 cores (Ensembl Dog)\n"
              << "wallclock: " << format_double(r.makespan, 1)
              << " s\n\nper-core GCUPS samples (time,core0,core1,core2,"
                 "core3):\n";
    // Bucket samples on a common 10 s grid for a compact CSV.
    const double step = 10.0;
    const std::vector<obs::WeightSample> samples =
        obs::weight_samples(r.trace);
    for (double t = step; t <= r.makespan + step; t += step) {
        double sum[4] = {0, 0, 0, 0};
        int n[4] = {0, 0, 0, 0};
        for (const obs::WeightSample& s : samples) {
            if (s.t > t - step && s.t <= t && s.pe < 4) {
                sum[s.pe] += s.realised_cps / 1e9;
                ++n[s.pe];
            }
        }
        std::cout << format_double(t, 0);
        for (int c = 0; c < 4; ++c) {
            std::cout << ','
                      << (n[c] ? format_double(sum[c] / n[c], 3) : "");
        }
        std::cout << '\n';
    }
    return 0;
}
