// Ablation: allocation-policy comparison (Table I's design space). Runs
// the SwissProt workload on the 4 GPU + 4 SSE hybrid under every policy,
// with and without the workload-adjustment mechanism, and reports the
// master interaction count (the communication cost SS pays for its
// balance).

#include <iostream>

#include "bench_common.hpp"

using namespace swh;

int main() {
    const db::DatabasePreset& swiss = db::preset_by_name("swissprot");
    struct Policy {
        const char* label;
        std::function<std::unique_ptr<core::AllocationPolicy>()> make;
    };
    const std::vector<Policy> policies = {
        {"SS", core::make_self_scheduling},
        {"ChunkedSS(4)", [] { return core::make_chunked_self_scheduling(4); }},
        {"PSS", core::make_pss},
        {"Fixed", core::make_fixed},
        {"WFixed(gpu=16)",
         [] {
             return core::make_wfixed({{core::PeKind::Gpu, 16.0},
                                       {core::PeKind::SseCore, 1.0}});
         }},
    };

    std::cout << "Policy ablation — SwissProt on 4 GPUs + 4 SSEs "
                 "(time(s) / GCUPS, task executions)\n\n";
    TextTable table({"Policy", "w/o adjustment", "w/ adjustment",
                     "executions w/ adj", "replicas"});
    for (const Policy& p : policies) {
        sim::SimConfig off = bench::paper_config(swiss, 4, 4, false);
        off.policy = p.make;
        const sim::SimReport r_off = sim::simulate(off);

        sim::SimConfig on = bench::paper_config(swiss, 4, 4, true);
        on.policy = p.make;
        const sim::SimReport r_on = sim::simulate(on);

        table.add_row({p.label, bench::time_gcups_cell(r_off),
                       bench::time_gcups_cell(r_on),
                       std::to_string(bench::executions(r_on)),
                       std::to_string(r_on.replicas_issued)});
    }
    table.print(std::cout);
    std::cout << "\nReading: SS balances well but costs one master "
                 "round-trip per task; Fixed/WFixed suffer without "
                 "replication when the static estimate is off; PSS + "
                 "adjustment is the paper's configuration.\n";
    return 0;
}
