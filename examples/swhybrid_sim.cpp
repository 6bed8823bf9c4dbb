// swhybrid_sim — command-line front end for the discrete-event
// simulator: describe a platform, database, and scheduling config;
// get makespan, GCUPS, per-PE stats, and optionally a Gantt chart.
//
//   swhybrid_sim --db swissprot --gpus 4 --sses 4 --policy pss
//   swhybrid_sim --db dog --sses 4 --load 60:0:0.5 --gantt

#include <fstream>
#include <iostream>

#include "db/presets.hpp"
#include "obs/balance.hpp"
#include "obs/sched_log.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/args.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

using namespace swh;

namespace {

std::function<std::unique_ptr<core::AllocationPolicy>()> policy_factory(
    const std::string& name) {
    if (name == "ss") return core::make_self_scheduling;
    if (name == "pss") return core::make_pss;
    if (name == "fixed") return core::make_fixed;
    if (name == "wfixed") {
        return [] {
            return core::make_wfixed(
                {{core::PeKind::Gpu, 16.0}, {core::PeKind::SseCore, 1.0}});
        };
    }
    throw ParseError("unknown policy: " + name);
}

}  // namespace

int main(int argc, char** argv) {
    ArgParser args("swhybrid_sim",
                   "simulate the paper's hybrid platform on a database "
                   "workload");
    args.add_option("db", "Table II database preset (substring match)",
                    "swissprot");
    args.add_option("gpus", "number of GPU PEs", "4");
    args.add_option("sses", "number of SSE-core PEs", "4");
    args.add_option("policy", "ss|pss|fixed|wfixed", "pss");
    args.add_option("queries", "number of query sequences", "40");
    args.add_option("omega", "PSS history window", "8");
    args.add_option("notify", "notification period (s)", "0.5");
    args.add_option("latency", "assignment round-trip latency (s)", "0");
    args.add_option(
        "load", "inject local load: time:pe:factor (e.g. 60:0:0.5)", "");
    args.add_option("leave", "PE leaves at time: time:pe", "");
    args.add_flag("no-adjust", "disable the workload-adjustment mechanism");
    args.add_flag("file-order",
                  "dispatch tasks in query-file order (the paper's) "
                  "instead of largest first");
    args.add_flag("gantt", "render an ASCII Gantt chart");
    args.add_flag("balance-report",
                  "print the workload-balance audit (per-PE busy/idle/comm, "
                  "imbalance ratio, critical path)");
    args.add_option("balance-json", "write the balance report as JSON here",
                    "");
    args.add_option("weights-out",
                    "record PSS weight trajectories (realised vs estimated "
                    "rate per progress sample) to this CSV/JSON file", "");

    try {
        if (!args.parse(argc, argv)) return 0;

        const db::DatabasePreset& preset =
            db::preset_by_name(args.get("db"));
        sim::SimConfig cfg;
        cfg.sched.workload_adjust = !args.get_flag("no-adjust");
        cfg.sched.omega = static_cast<std::size_t>(args.get_int("omega"));
        if (args.get_flag("file-order")) {
            cfg.sched.ready_order = core::ReadyOrder::FifoById;
        }
        cfg.policy = policy_factory(args.get("policy"));
        cfg.notify_period_s = args.get_double("notify");
        cfg.assign_latency_s = args.get_double("latency");
        cfg.db_residues = preset.total_residues();
        const auto queries = db::make_query_set(
            static_cast<std::size_t>(args.get_int("queries")));
        for (const auto& q : queries) cfg.query_lengths.push_back(q.size());
        for (long long g = 0; g < args.get_int("gpus"); ++g) {
            cfg.pes.push_back(
                sim::gpu_pe("GPU" + std::to_string(g + 1)));
        }
        for (long long s = 0; s < args.get_int("sses"); ++s) {
            cfg.pes.push_back(
                sim::sse_core_pe("SSE" + std::to_string(s + 1)));
        }
        if (!args.get("load").empty()) {
            const auto parts = split(args.get("load"), ':');
            require_arg(parts.size() == 3, "--load wants time:pe:factor");
            cfg.load_events.push_back(
                sim::LoadEvent{parse_double(parts[0], "--load time"),
                               static_cast<std::size_t>(
                                   parse_int(parts[1], "--load pe")),
                               parse_double(parts[2], "--load factor")});
        }
        if (!args.get("leave").empty()) {
            const auto parts = split(args.get("leave"), ':');
            require_arg(parts.size() == 2, "--leave wants time:pe");
            cfg.leave_events.push_back(
                sim::LeaveEvent{parse_double(parts[0], "--leave time"),
                                static_cast<std::size_t>(
                                    parse_int(parts[1], "--leave pe"))});
        }

        // The Gantt chart, the balance audit and the PSS weight
        // trajectories all read the run's trace, recorded in virtual
        // time exactly as a traced real run records it. Outputs are
        // opened first, so an unwritable path fails before the
        // simulation runs.
        const std::string weights_path = args.get("weights-out");
        std::ofstream balance_file = open_output(args, "balance-json");
        std::ofstream weights_file = open_output(args, "weights-out");

        const sim::SimReport r = sim::simulate(cfg);
        std::cout << preset.name << ": "
                  << with_thousands(
                         static_cast<long long>(cfg.db_residues))
                  << " residues, " << cfg.query_lengths.size()
                  << " queries\nmakespan " << format_double(r.makespan, 1)
                  << " s,  " << format_double(r.gcups, 2) << " GCUPS,  "
                  << r.replicas_issued << " replicas, "
                  << r.completions_discarded << " duplicates discarded\n\n";

        TextTable table({"PE", "kind", "accepted", "discarded", "aborted",
                         "busy (s)"});
        for (const sim::PeReport& pe : r.pes) {
            table.add_row({pe.label, core::to_string(pe.kind),
                           std::to_string(pe.results_accepted),
                           std::to_string(pe.results_discarded),
                           std::to_string(pe.tasks_aborted),
                           format_double(pe.busy_seconds, 1)});
        }
        table.print(std::cout);

        if (args.get_flag("gantt")) {
            std::cout << '\n'
                      << obs::render_trace_gantt(r.trace, r.makespan / 80.0);
        }
        if (args.get_flag("balance-report") || balance_file.is_open()) {
            const obs::BalanceReport balance =
                obs::analyze_balance(r.trace, sim::balance_options(r));
            if (args.get_flag("balance-report")) {
                std::cout << '\n' << balance.to_text();
            }
            if (balance_file.is_open()) {
                balance_file << balance.to_json() << '\n';
                std::cout << "balance report written to "
                          << args.get("balance-json") << '\n';
            }
        }
        if (weights_file.is_open()) {
            std::vector<std::string> labels;
            for (const sim::PeReport& pe : r.pes) labels.push_back(pe.label);
            const std::vector<obs::WeightSample> samples =
                obs::weight_samples(r.trace);
            obs::write_weights(weights_file, weights_path, samples, labels);
            std::cout << samples.size() << " PSS weight samples written to "
                      << weights_path << '\n';
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
