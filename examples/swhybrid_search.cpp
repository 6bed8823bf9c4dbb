// swhybrid_search — command-line protein database search, the tool a
// downstream user would actually run. Wires together the whole library:
// indexed FASTA input, the hybrid master/slave runtime with selectable
// allocation policy and workload adjustment, and Gumbel statistics for
// E-values.
//
//   swhybrid_search queries.fa database.fa --slaves gpu:1,sse:2 --top 5
//
// Run with --generate-demo to create a small query/database pair first.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>

#include "align/evalue.hpp"
#include "align/local_align.hpp"
#include "db/database.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/faulty_engine.hpp"
#include "engines/sim_gpu_engine.hpp"
#include "io/fasta.hpp"
#include "io/indexed.hpp"
#include "obs/balance.hpp"
#include "obs/dashboard.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/sampler.hpp"
#include "obs/sched_log.hpp"
#include "obs/trace.hpp"
#include "runtime/hybrid_runtime.hpp"
#include "runtime/remote.hpp"
#include "util/args.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

using namespace swh;

namespace {

std::unique_ptr<core::AllocationPolicy> make_policy(const std::string& name) {
    if (name == "ss") return core::make_self_scheduling();
    if (name == "pss") return core::make_pss();
    if (name == "fixed") return core::make_fixed();
    if (name == "wfixed") {
        return core::make_wfixed(
            {{core::PeKind::Gpu, 16.0}, {core::PeKind::SseCore, 1.0}});
    }
    throw ParseError("unknown policy: " + name +
                     " (expected ss|pss|fixed|wfixed)");
}

/// Parses "gpu:1,sse:2" into slave specs.
std::vector<runtime::SlaveSpec> make_slaves(
    const std::string& spec, const engines::EngineConfig& config) {
    std::vector<runtime::SlaveSpec> slaves;
    for (const std::string& part : split(spec, ',')) {
        const std::vector<std::string> kv = split(part, ':');
        require_arg(kv.size() == 2, "slave spec must look like kind:count");
        const long long count = parse_int(kv[1], "slave count");
        require_arg(count >= 0 && count <= 64, "unreasonable slave count");
        for (long long i = 0; i < count; ++i) {
            const std::string label = kv[0] + std::to_string(i);
            if (kv[0] == "gpu") {
                slaves.push_back(runtime::SlaveSpec{
                    label, std::make_unique<engines::SimGpuEngine>(
                               config, engines::GpuDeviceModel{},
                               /*pace=*/false)});
            } else if (kv[0] == "sse") {
                slaves.push_back(runtime::SlaveSpec{
                    label, std::make_unique<engines::CpuEngine>(config)});
            } else {
                throw ParseError("unknown slave kind: " + kv[0]);
            }
        }
    }
    require_arg(!slaves.empty(), "no slaves configured");
    return slaves;
}

engines::FaultKind parse_fault_kind(const std::string& name) {
    if (name == "throw") return engines::FaultKind::Throw;
    if (name == "crash") return engines::FaultKind::Crash;
    if (name == "stall") return engines::FaultKind::Stall;
    if (name == "slow") return engines::FaultKind::Slow;
    throw ParseError("unknown fault kind: " + name +
                     " (expected throw|crash|stall|slow)");
}

/// Parses "--fault sse0=crash@50000,gpu0=throw" and wraps the named
/// slaves' engines in fault-injecting decorators. Each decorator gets a
/// distinct stream split off the base seed so runs replay exactly.
void apply_faults(std::vector<runtime::SlaveSpec>& slaves,
                  const std::string& spec, std::uint64_t seed) {
    if (spec.empty()) return;
    std::uint64_t stream = 0;
    for (const std::string& part : split(spec, ',')) {
        const std::vector<std::string> kv = split(part, '=');
        require_arg(kv.size() == 2,
                    "fault spec must look like label=kind[@cells]");
        const std::vector<std::string> ka = split(kv[1], '@');
        require_arg(ka.size() <= 2,
                    "fault spec must look like label=kind[@cells]");
        engines::FaultPlan plan;
        plan.kind = parse_fault_kind(ka[0]);
        if (ka.size() == 2) {
            plan.after_cells =
                static_cast<std::uint64_t>(parse_int(ka[1], "fault cells"));
        }
        plan.seed = seed + stream++;
        bool found = false;
        for (runtime::SlaveSpec& s : slaves) {
            if (s.label != kv[0]) continue;
            s.engine = std::make_unique<engines::FaultyEngine>(
                std::move(s.engine), plan);
            found = true;
            break;
        }
        if (!found) {
            throw ParseError("no slave labelled " + kv[0] +
                             " to inject a fault into");
        }
    }
}

void generate_demo(const std::string& query_path,
                   const std::string& db_path) {
    Rng rng(20130527);
    db::DatabaseSpec spec;
    spec.name = "demo_db";
    spec.num_sequences = 500;
    spec.seed = 1;
    db::Database database = db::Database::generate(spec);

    // Queries: some random, some mutated copies of database entries so
    // the search has true positives.
    std::vector<align::Sequence> queries;
    for (int i = 0; i < 3; ++i) {
        queries.push_back(
            db::random_protein(rng, 150 + 100 * i, "random_" +
                                                       std::to_string(i)));
    }
    for (int i = 0; i < 3; ++i) {
        const align::Sequence& source = database[50 + 100 * i];
        align::Sequence q = db::mutate(source, align::Alphabet::protein(),
                                       db::MutationModel{0.1, 0.02, 0.02},
                                       rng);
        q.id = "homolog_of_" + source.id;
        queries.push_back(std::move(q));
    }
    io::write_fasta_file(query_path, queries, align::Alphabet::protein());
    io::write_fasta_file(db_path, database.sequences(),
                         align::Alphabet::protein());
    std::cout << "wrote " << queries.size() << " queries to " << query_path
              << " and " << database.size() << " sequences to " << db_path
              << '\n';
}

}  // namespace

int main(int argc, char** argv) {
    ArgParser args("swhybrid_search",
                   "Smith-Waterman protein database search on a hybrid "
                   "(simulated-GPU + SSE) platform");
    args.add_positional("queries", "FASTA file of query sequences",
                        "queries.fa");
    args.add_positional("database", "FASTA file of database sequences",
                        "database.fa");
    args.add_option("slaves", "platform spec, e.g. gpu:1,sse:2",
                    "gpu:1,sse:1");
    args.add_option("transport",
                    "slave transport: inproc (threads) or socket "
                    "(separate swhybrid_slave processes over loopback TCP)",
                    "inproc");
    args.add_option("port",
                    "with --transport=socket: TCP port to listen on "
                    "(0 picks a free one and prints it)",
                    "0");
    args.add_option("expect-slaves",
                    "with --transport=socket: start once this many slave "
                    "processes have connected",
                    "1");
    args.add_option("accept-timeout",
                    "with --transport=socket: give up on missing slaves "
                    "after this many seconds",
                    "30");
    args.add_option("policy", "allocation policy: ss|pss|fixed|wfixed",
                    "pss");
    args.add_option("top", "hits to report per query", "5");
    args.add_option("gap-open", "gap open penalty", "10");
    args.add_option("gap-extend", "gap extension penalty", "2");
    args.add_option("max-evalue", "suppress hits above this E-value",
                    "10");
    args.add_option("matrix", "NCBI-format matrix file, or 'blosum62'",
                    "blosum62");
    args.add_option("out", "also write hits as BLAST-style TSV here", "");
    args.add_flag("align", "print the best hit's alignment per query");
    args.add_flag("no-adjust", "disable the workload-adjustment mechanism");
    args.add_flag("generate-demo", "write demo query/database files and exit");
    args.add_option("liveness-timeout",
                    "declare a slave dead after this many seconds of "
                    "silence and requeue its tasks (0 = off)",
                    "0");
    args.add_option("heartbeat",
                    "idle-slave heartbeat period in seconds (used only "
                    "with --liveness-timeout)",
                    "0.05");
    args.add_option("retries",
                    "engine-failure retries per task before it is "
                    "reported as failed",
                    "3");
    args.add_option("fault",
                    "inject engine faults: label=kind[@cells],... with "
                    "kind throw|crash|stall|slow, e.g. sse0=crash@50000",
                    "");
    args.add_option("chan-drop",
                    "slave->master message drop probability (requires "
                    "--liveness-timeout > 0)",
                    "0");
    args.add_option("chan-stall",
                    "extra delivery stall in seconds on every link", "0");
    args.add_option("fault-seed", "seed for the fault-injection streams",
                    "24029");
    args.add_option("trace",
                    "record the run and write Chrome trace-event JSON here "
                    "(open at ui.perfetto.dev)",
                    "");
    args.add_option("metrics",
                    "write run metrics (counters/histograms) as JSON here",
                    "");
    args.add_flag("gantt", "print an ASCII Gantt chart of the run");
    args.add_flag("balance-report",
                  "print the post-run workload-balance audit (per-PE "
                  "busy/comm/idle, imbalance ratio, critical path)");
    args.add_option("balance-json",
                    "also write the balance report as JSON here", "");
    args.add_option("weights-out",
                    "record PSS weight trajectories (realised vs estimated "
                    "rate per PE) and write them here as CSV (.json for "
                    "JSON)",
                    "");
    args.add_option("prom",
                    "write Prometheus text-format metrics here, rewritten "
                    "every --watch-period while the run executes",
                    "");
    args.add_flag("watch",
                  "live ASCII dashboard (refresh in place) with per-PE "
                  "rates, imbalance, and funnel tau while the run executes");
    args.add_option("watch-period",
                    "dashboard/scrape refresh period in seconds", "0.5");

    try {
        if (!args.parse(argc, argv)) return 0;

        if (args.get_flag("generate-demo")) {
            generate_demo(args.get("queries"), args.get("database"));
            return 0;
        }
        // The kernels, and the prefilter's bound, need non-negative
        // penalties, and open + extend must fit a Score: reject others
        // before any input is read.
        constexpr long long kMaxGap =
            std::numeric_limits<align::Score>::max() / 2;
        for (const char* name : {"gap-open", "gap-extend"}) {
            const long long penalty = args.get_int(name);
            require_arg(penalty >= 0 && penalty <= kMaxGap,
                        "--gap-open and --gap-extend must be non-negative "
                        "(at most " + std::to_string(kMaxGap) + ")");
        }
        const align::GapPenalty gap{
            static_cast<align::Score>(args.get_int("gap-open")),
            static_cast<align::Score>(args.get_int("gap-extend"))};

        const align::Alphabet& aa = align::Alphabet::protein();
        const auto queries = io::read_fasta_file(args.get("queries"), aa);
        require_arg(!queries.empty(), "query file has no sequences");
        // The indexed reader both builds the sidecar (paper SS IV-B) and
        // gives us residue totals without a second scan.
        const io::IndexedFastaReader db_reader(args.get("database"), aa);
        db::Database database(
            args.get("database"),
            db_reader.slice(0, db_reader.size()));
        require_arg(database.size() > 0, "database has no sequences");

        align::ScoreMatrix matrix = align::ScoreMatrix::blosum62();
        if (args.get("matrix") != "blosum62") {
            std::ifstream min(args.get("matrix"));
            if (!min) throw IoError("cannot open matrix file");
            matrix = align::ScoreMatrix::from_ncbi_stream(
                aa, min, args.get("matrix"));
        }

        engines::EngineConfig config;
        config.matrix = &matrix;
        config.gap = gap;
        config.top_k = static_cast<std::size_t>(args.get_int("top"));
        config.isa = simd::best_supported();

        runtime::RuntimeOptions options;
        options.top_k = config.top_k;
        options.sched.workload_adjust = !args.get_flag("no-adjust");
        options.liveness_timeout_s = args.get_double("liveness-timeout");
        options.heartbeat_period_s = args.get_double("heartbeat");
        options.max_task_retries =
            static_cast<std::size_t>(args.get_int("retries"));
        const auto fault_seed =
            static_cast<std::uint64_t>(args.get_int("fault-seed"));
        options.master_link_faults.drop_prob = args.get_double("chan-drop");
        options.master_link_faults.stall_s = args.get_double("chan-stall");
        options.master_link_faults.seed = fault_seed;
        options.slave_link_stall_s = args.get_double("chan-stall");

        // Observability: a recorder when any trace-derived output was
        // asked for (including the balance audit and the PSS weight
        // trajectories, read off the scheduler's "master" lane), a
        // registry when any metrics consumer is on (file, Prometheus
        // scrape, dashboard).
        const bool want_balance = args.get_flag("balance-report") ||
                                  !args.get("balance-json").empty();
        const std::string weights_path = args.get("weights-out");
        const bool want_trace = !args.get("trace").empty() ||
                                args.get_flag("gantt") || want_balance ||
                                !weights_path.empty();
        const bool want_watch = args.get_flag("watch");
        const bool want_prom = !args.get("prom").empty();
        const bool want_metrics =
            !args.get("metrics").empty() || want_watch || want_prom;
        std::optional<obs::TraceRecorder> recorder;
        obs::MetricsRegistry registry;
        if (want_trace) recorder.emplace();
        options.trace = want_trace ? &*recorder : nullptr;
        options.metrics = want_metrics ? &registry : nullptr;
        if (want_metrics) config.metrics = &registry;

        const std::string transport = args.get("transport");
        require_arg(transport == "inproc" || transport == "socket",
                    "--transport must be inproc or socket");
        const bool socket_mode = transport == "socket";
        if (socket_mode) {
            // Engine-side knobs belong to the slave processes there.
            require_arg(args.get("fault").empty(),
                        "--fault wraps in-process engines; pass --fault "
                        "to swhybrid_slave instead");
        }

        // Open every output file before the search, so an unwritable
        // path fails now rather than after the whole run. The Prometheus
        // file is written through "<prom>.tmp" and a rename; probe that.
        std::ofstream tsv = open_output(args, "out");
        std::ofstream trace_file = open_output(args, "trace");
        std::ofstream balance_file = open_output(args, "balance-json");
        std::ofstream weights_file = open_output(args, "weights-out");
        std::ofstream metrics_file = open_output(args, "metrics");
        if (want_prom) {
            const std::string tmp = args.get("prom") + ".tmp";
            if (!std::ofstream(tmp)) {
                throw IoError("cannot open --prom file for writing: " + tmp);
            }
            std::remove(tmp.c_str());
        }

        std::cout << "searching " << queries.size() << " queries against "
                  << database.size() << " sequences ("
                  << with_thousands(
                         static_cast<long long>(database.residues()))
                  << " residues), policy " << args.get("policy")
                  << ", slaves "
                  << (socket_mode ? "remote ×" +
                                        std::to_string(args.get_int(
                                            "expect-slaves"))
                                  : args.get("slaves"))
                  << ", ISA " << simd::to_string(config.isa) << " ("
                  << simd::to_string(simd::active_tier()) << ")\n";

        std::vector<runtime::SlaveSpec> slaves;
        // PeIds are handed out in registration (spec / connection)
        // order, so these double as the dashboard row labels. Socket
        // slaves announce their labels only in the Hello, so the live
        // views use positional names there.
        std::vector<std::string> slave_labels;
        if (socket_mode) {
            const long long expect = args.get_int("expect-slaves");
            require_arg(expect > 0 && expect <= 64,
                        "unreasonable --expect-slaves");
            for (long long i = 0; i < expect; ++i) {
                slave_labels.push_back("pe" + std::to_string(i));
            }
        } else {
            slaves = make_slaves(args.get("slaves"), config);
            apply_faults(slaves, args.get("fault"), fault_seed);
            slave_labels.reserve(slaves.size());
            for (const runtime::SlaveSpec& s : slaves) {
                slave_labels.push_back(s.label);
            }
        }

        // Resident-process surface: a background sampler renders the
        // live dashboard and/or rewrites the Prometheus scrape file
        // while run() blocks this thread.
        std::optional<obs::PeriodicSampler> sampler;
        if (want_watch || want_prom) {
            const double period =
                std::max(args.get_double("watch-period"), 0.05);
            const std::string prom_path = args.get("prom");
            sampler.emplace(
                registry, period,
                [&slave_labels, want_watch,
                 prom_path](const obs::MetricsSnapshot& snap,
                            double elapsed) {
                    if (want_watch) {
                        obs::DashboardOptions dopt;
                        dopt.pe_labels = slave_labels;
                        dopt.elapsed_s = elapsed;
                        std::cout << "\x1b[H\x1b[2J"
                                  << obs::render_dashboard(snap, dopt)
                                  << std::flush;
                    }
                    if (!prom_path.empty()) {
                        // Write-then-rename so a concurrent scrape
                        // never reads a half-written exposition.
                        const std::string tmp = prom_path + ".tmp";
                        {
                            std::ofstream pf(tmp);
                            if (!pf) return;
                            obs::export_prometheus(snap, pf);
                        }
                        std::rename(tmp.c_str(), prom_path.c_str());
                    }
                });
        }

        runtime::RunReport report;
        if (socket_mode) {
            runtime::RemoteMasterOptions mopts;
            mopts.runtime = options;
            mopts.port = static_cast<std::uint16_t>(args.get_int("port"));
            mopts.expect_slaves =
                static_cast<std::size_t>(args.get_int("expect-slaves"));
            mopts.accept_timeout_s = args.get_double("accept-timeout");
            runtime::RemoteMaster master(database, queries, mopts);
            const std::uint16_t port = master.listen();
            std::cout << "listening on 127.0.0.1:" << port
                      << ", waiting for " << mopts.expect_slaves
                      << " slave(s): swhybrid_slave "
                      << args.get("queries") << ' ' << args.get("database")
                      << " --port " << port << std::endl;
            report = master.run(make_policy(args.get("policy")));
        } else {
            runtime::HybridRuntime rt(database, queries, options);
            report =
                rt.run(std::move(slaves), make_policy(args.get("policy")));
        }
        if (sampler.has_value()) sampler->stop();

        const align::GumbelParams stats = align::fit_gumbel(matrix, gap);
        const double max_evalue = args.get_double("max-evalue");

        if (tsv.is_open()) tsv << "query\tsubject\tscore\tbits\tevalue\n";

        for (std::size_t q = 0; q < queries.size(); ++q) {
            std::cout << "\nquery " << queries[q].id << " ("
                      << queries[q].size() << " aa):\n";
            TextTable table({"hit", "len", "score", "bits", "E-value"});
            for (const core::Hit& h : report.hits[q]) {
                const double e = stats.evalue(h.score, queries[q].size(),
                                              database.residues());
                if (e > max_evalue) continue;
                char ebuf[32];
                std::snprintf(ebuf, sizeof ebuf, "%.2g", e);
                table.add_row({database[h.db_index].id,
                               std::to_string(database[h.db_index].size()),
                               std::to_string(h.score),
                               format_double(stats.bit_score(h.score), 1),
                               ebuf});
                if (tsv.is_open()) {
                    tsv << queries[q].id << '\t'
                        << database[h.db_index].id << '\t' << h.score
                        << '\t'
                        << format_double(stats.bit_score(h.score), 1)
                        << '\t' << ebuf << '\n';
                }
            }
            if (table.rows() == 0) {
                std::cout << "  (no hits below E = "
                          << format_double(max_evalue, 2) << ")\n";
            } else {
                table.print(std::cout);
            }
            if (args.get_flag("align") && !report.hits[q].empty()) {
                const core::Hit& best = report.hits[q][0];
                const align::Alignment aln = align::sw_align_affine_lowmem(
                    queries[q].residues, database[best.db_index].residues,
                    matrix, gap);
                std::cout << "best alignment (vs "
                          << database[best.db_index].id << ", cigar "
                          << aln.cigar() << "):\n"
                          << align::format_alignment(
                                 aln, aa, queries[q].residues,
                                 database[best.db_index].residues);
            }
        }

        std::cout << "\n" << format_double(report.wall_seconds, 2) << " s, "
                  << format_double(report.gcups, 3) << " GCUPS, "
                  << report.replicas_issued << " replicas issued\n";

        // Fault summary: anything the run survived (or gave up on).
        if (report.task_failures > 0 || report.slaves_presumed_dead > 0 ||
            report.late_completions_discarded > 0 ||
            !report.failed_tasks.empty()) {
            std::cout << "faults: " << report.task_failures
                      << " engine failures, " << report.slaves_presumed_dead
                      << " slaves presumed dead, "
                      << report.late_completions_discarded
                      << " late completions discarded\n";
            for (const runtime::SlaveReport& s : report.slaves) {
                if (!s.presumed_dead && !s.crashed && s.engine_failures == 0)
                    continue;
                std::cout << "  " << s.label << ":"
                          << (s.crashed ? " crashed" : "")
                          << (s.presumed_dead ? " presumed-dead" : "");
                if (s.engine_failures > 0) {
                    std::cout << " " << s.engine_failures
                              << " engine failures";
                }
                std::cout << '\n';
            }
            for (const runtime::RunReport::FailedTask& f :
                 report.failed_tasks) {
                std::cout << "  FAILED query #" << f.query_index << " ("
                          << queries[f.query_index].id << "): "
                          << f.last_error << " after " << f.failures
                          << " failures — hits may be missing\n";
            }
        }

        if (want_trace) {
            const obs::Trace trace = recorder->drain();
            if (trace_file.is_open()) {
                obs::export_chrome_json(trace, trace_file);
                std::cout << "trace (" << trace.total_events()
                          << " events) written to " << args.get("trace")
                          << " — open it at ui.perfetto.dev\n";
            }
            if (args.get_flag("gantt")) {
                const double step =
                    std::max(report.wall_seconds / 60.0, 1e-6);
                std::cout << "\n" << obs::render_trace_gantt(trace, step);
            }
            if (want_balance) {
                obs::require_audit_complete(trace);
                obs::BalanceOptions bopt;
                bopt.horizon_s = report.wall_seconds;
                for (const runtime::SlaveReport& s : report.slaves) {
                    bopt.cells_by_label.emplace_back(
                        s.label, static_cast<double>(s.cells_computed));
                }
                const obs::BalanceReport balance =
                    obs::analyze_balance(trace, bopt);
                if (args.get_flag("balance-report")) {
                    std::cout << "\n" << balance.to_text();
                }
                if (balance_file.is_open()) {
                    balance_file << balance.to_json();
                    std::cout << "balance report written to "
                              << args.get("balance-json") << '\n';
                }
            }
            if (weights_file.is_open()) {
                // The run report carries the labels socket slaves sent
                // in their Hello.
                std::vector<std::string> labels;
                for (const runtime::SlaveReport& s : report.slaves) {
                    labels.push_back(s.label);
                }
                const std::vector<obs::WeightSample> samples =
                    obs::weight_samples(trace);
                obs::write_weights(weights_file, weights_path, samples,
                                   labels);
                std::cout << samples.size()
                          << " PSS weight samples written to "
                          << weights_path << '\n';
            }
        }
        if (want_prom) {
            const std::string tmp = args.get("prom") + ".tmp";
            {
                std::ofstream pf(tmp);
                if (!pf) {
                    throw IoError("cannot open --prom file for writing");
                }
                obs::export_prometheus(report.metrics, pf);
            }
            std::rename(tmp.c_str(), args.get("prom").c_str());
            std::cout << "prometheus metrics written to " << args.get("prom")
                      << '\n';
        }
        if (metrics_file.is_open()) {
            metrics_file << report.metrics.to_json() << '\n';
            for (const runtime::KindCells& kc : report.cells_by_kind()) {
                std::cout << core::to_string(kc.kind) << ": "
                          << with_thousands(static_cast<long long>(
                                 kc.cells_accepted))
                          << " cells accepted, "
                          << with_thousands(static_cast<long long>(
                                 kc.cells_discarded))
                          << " discarded\n";
            }
            std::cout << "metrics written to " << args.get("metrics")
                      << '\n';
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
