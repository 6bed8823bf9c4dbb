// Ablation for the paper's Fig. 3 discussion (parallelisation grain):
// the same total work split into different task counts. Finer tasks
// balance better across a heterogeneous platform but pay more per-task
// overhead and master traffic; the paper's very coarse grain (task =
// query x whole database) relies on PSS + the adjustment mechanism to
// stay balanced.

#include <iostream>
#include <numeric>

#include "bench_common.hpp"

using namespace swh;

int main() {
    const db::DatabasePreset& swiss = db::preset_by_name("swissprot");
    const auto base_lengths = bench::paper_query_lengths();

    std::cout << "Granularity ablation — SwissProt workload on "
                 "4 GPUs + 4 SSEs, same total cells split into N tasks\n\n";
    TextTable table({"Tasks", "split", "wallclock (s)", "GCUPS",
                     "executions"});
    for (const int split : {1, 4, 16, 64}) {
        // Split every query's comparison into `split` database slices —
        // the coarse-grained decomposition of Fig. 3(b).
        std::vector<std::size_t> lengths;
        for (const std::size_t len : base_lengths) {
            for (int s = 0; s < split; ++s) {
                lengths.push_back(std::max<std::size_t>(1, len / split));
            }
        }
        sim::SimConfig cfg = bench::paper_config(swiss, 4, 4);
        cfg.query_lengths = lengths;
        const sim::SimReport r = sim::simulate(cfg);
        table.add_row({std::to_string(lengths.size()),
                       "1/" + std::to_string(split),
                       format_double(r.makespan, 1),
                       format_double(r.gcups, 2),
                       std::to_string(bench::executions(r))});
    }
    table.print(std::cout);
    std::cout << "\nReading: finer grain shortens the tail the adjustment "
                 "mechanism otherwise absorbs, at the cost of more "
                 "per-task overhead and master interactions.\n";
    return 0;
}
