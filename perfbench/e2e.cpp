// bench_e2e — end-to-end search benchmark with a per-layer ledger.
//
//   bench_e2e gen --workload paper40 --seed 7 --dir D   seeded FASTA inputs
//   bench_e2e ref --dir D                                exhaustive top-k
//   bench_e2e run --workload paper40 --dir D --seconds 20 --trace 0|1
//
// perfbench/run.py drives the three steps (README.md in this directory
// describes the workloads and metrics). `run` reads the FASTA files the
// way swhybrid_search does, times the set-up and repeated batch runs of
// the real runtime (HybridRuntime in-process, or RemoteMaster plus
// run_remote_slave threads over loopback TCP), checks every query's top-k
// against the reference bit for bit, and prints one JSON line of details
// followed by the result line. It exits 1 on any top-k mismatch.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "align/score_matrix.hpp"
#include "align/striped.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/throttled_engine.hpp"
#include "io/fasta.hpp"
#include "io/indexed.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "runtime/hybrid_runtime.hpp"
#include "runtime/remote.hpp"
#include "util/args.hpp"
#include "util/hostinfo.hpp"
#include "util/rng.hpp"

using namespace swh;
using pb::Clock;
using pb::seconds_between;

namespace {

// ---- Workloads ----------------------------------------------------------

struct Workload {
    std::string name;
    /// Queries are light mutants of planted database families; otherwise
    /// random sequences with no homolog in the database.
    bool homologs = true;
    std::size_t queries = 0;
    std::size_t min_len = 0;
    std::size_t max_len = 0;
    std::size_t db_sequences = 0;  ///< database records, planted included
    std::size_t family_size = 0;   ///< planted records per query (homologs)
    unsigned full_slaves = 0;      ///< bare CpuEngine slaves
    unsigned throttled_slaves = 0;  ///< ThrottledEngine(CpuEngine) slaves
    bool socket = false;  ///< RemoteMaster + run_remote_slave over TCP

    unsigned slaves() const { return full_slaves + throttled_slaves; }
};

/// Full sizes target a 4-core host and at most 3 compute-bound slaves;
/// the toy sizes keep every mechanism but finish in about a second.
const std::vector<Workload>& workloads(bool toy) {
    static const std::vector<Workload> full = {
        {"paper40", true, 40, 100, 5000, 440, 10, 3, 0, false},
        {"hetero_nohit", false, 40, 100, 5000, 400, 0, 2, 2, false},
        {"short_socket", true, 2000, 50, 150, 2500, 1, 3, 0, true},
    };
    static const std::vector<Workload> small = {
        {"paper40", true, 9, 100, 900, 200, 10, 3, 0, false},
        {"hetero_nohit", false, 9, 100, 900, 200, 0, 2, 2, false},
        {"short_socket", true, 90, 50, 150, 300, 1, 3, 0, true},
    };
    return toy ? small : full;
}

const Workload& find_workload(const std::string& name, bool toy) {
    for (const Workload& w : workloads(toy)) {
        if (w.name == name) return w;
    }
    throw ContractError("unknown workload: " + name +
                        " (expected paper40|hetero_nohit|short_socket)");
}

/// The paper's query lengths: linearly spaced from min_len to max_len.
std::vector<std::size_t> query_lengths(const Workload& w) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < w.queries; ++i) {
        out.push_back(w.min_len +
                      (w.max_len - w.min_len) * i / std::max<std::size_t>(
                                                        1, w.queries - 1));
    }
    return out;
}

std::string queries_path(const std::string& dir) {
    return dir + "/queries.fa";
}
std::string database_path(const std::string& dir) {
    return dir + "/database.fa";
}
std::string reference_path(const std::string& dir) {
    return dir + "/reference.txt";
}

/// Random subjects whose lengths come from a fixed stream: every seed has
/// the same length profile, hence the same cells per task, and draws only
/// the residues. Otherwise the seed's cell count, amplified by PSS's
/// rounded package sizes, swamps the run-to-run spread.
std::vector<align::Sequence> random_subjects(std::size_t n,
                                             std::uint64_t seed) {
    const db::LengthModel model;
    Rng shape(0x7368617065ULL);
    Rng content(seed ^ 0x7375626a656374ULL);
    std::vector<align::Sequence> out;
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(db::random_protein(content, model.sample(shape),
                                         "subject_" + std::to_string(i)));
    }
    return out;
}

void generate(const Workload& w, std::uint64_t seed, const std::string& dir) {
    std::vector<align::Sequence> queries, subjects;
    if (w.homologs) {
        db::ScanSample sample = db::make_scan_sample(
            w.db_sequences, query_lengths(w), w.family_size, seed);
        queries = std::move(sample.queries);
        subjects = sample.database.sequences();
    } else {
        queries = db::make_query_set(w.queries, w.min_len, w.max_len, seed);
        subjects = random_subjects(w.db_sequences, seed);
    }
    const align::Alphabet& aa = align::Alphabet::protein();
    io::write_fasta_file(queries_path(dir), queries, aa);
    io::write_fasta_file(database_path(dir), subjects, aa);
}

// ---- Set-up -------------------------------------------------------------

struct Inputs {
    std::vector<align::Sequence> queries;
    db::Database database;
};

struct SetupTimes {
    double io_s = 0.0;
    double pack_s = 0.0;
    double interleave_s = 0.0;
    double total() const { return io_s + pack_s + interleave_s; }
};

/// What a swhybrid_search user pays on every invocation: read the query
/// FASTA, open the database through its sidecar index (the reference step
/// built it, as a first search does) and read it, pack it, and build the
/// interleaved layout at the scan's lane width.
SetupTimes set_up(const std::string& dir, simd::IsaLevel isa, Inputs& out,
                  obs::TraceLane* lane) {
    const align::Alphabet& aa = align::Alphabet::protein();
    const std::string db_path = database_path(dir);
    out = Inputs{};  // free the previous repetition's copy first

    SetupTimes t;
    if (lane != nullptr) lane->span_begin("bench:setup.io");
    Clock::time_point mark = Clock::now();
    out.queries = io::read_fasta_file(queries_path(dir), aa);
    const io::IndexedFastaReader reader(db_path, aa);
    out.database = db::Database(db_path, reader.slice(0, reader.size()));
    Clock::time_point now = Clock::now();
    t.io_s = seconds_between(mark, now);
    if (lane != nullptr) {
        lane->span_end("bench:setup.io");
        lane->span_begin("bench:setup.pack");
    }
    mark = now;
    const db::PackedDatabase& packed = out.database.packed();
    now = Clock::now();
    t.pack_s = seconds_between(mark, now);
    if (lane != nullptr) {
        lane->span_end("bench:setup.pack");
        lane->span_begin("bench:setup.interleave");
    }
    mark = now;
    packed.interleaved(align::lanes_u8(isa));
    t.interleave_s = seconds_between(mark, Clock::now());
    if (lane != nullptr) lane->span_end("bench:setup.interleave");

    SWH_REQUIRE(!out.queries.empty(), "query file has no sequences");
    SWH_REQUIRE(out.database.size() > 0, "database has no sequences");
    return t;
}

// ---- Engines and the reference -------------------------------------------

constexpr std::size_t kTopK = 10;
/// A throttled slave plays the paper's ~2 GCUPS SSE core beside faster PEs.
constexpr double kThrottledGcups = 2.0;

engines::EngineConfig engine_config(obs::MetricsRegistry* metrics) {
    static const align::ScoreMatrix matrix = align::ScoreMatrix::blosum62();
    engines::EngineConfig c;
    c.matrix = &matrix;
    c.gap = align::GapPenalty{10, 2};
    c.top_k = kTopK;
    c.isa = simd::best_supported();
    c.metrics = metrics;
    return c;
}

using Hits = std::vector<std::vector<core::Hit>>;

/// Exhaustive top-k: every subject is scored exactly (no prefilter, no
/// inter-sequence cohorts), one query after another.
void make_reference(const std::string& dir) {
    Inputs in;
    set_up(dir, simd::best_supported(), in, nullptr);
    engines::EngineConfig c = engine_config(nullptr);
    c.prefilter = false;
    c.interseq = false;
    const unsigned threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 3u);
    engines::CpuEngine engine(c, threads);
    std::ofstream out(reference_path(dir));
    SWH_REQUIRE(static_cast<bool>(out), "cannot write the reference file");
    for (std::size_t q = 0; q < in.queries.size(); ++q) {
        const core::TaskResult r =
            engine.execute(in.queries[q], static_cast<std::uint32_t>(q),
                           static_cast<core::TaskId>(q), in.database, nullptr);
        out << r.hits.size();
        for (const core::Hit& h : r.hits) out << ' ' << h.db_index << ' ' << h.score;
        out << '\n';
    }
    SWH_REQUIRE(static_cast<bool>(out), "writing the reference file failed");
}

Hits load_reference(const std::string& dir, std::size_t queries) {
    std::ifstream in(reference_path(dir));
    SWH_REQUIRE(static_cast<bool>(in), "cannot read the reference file");
    Hits hits(queries);
    for (std::vector<core::Hit>& q : hits) {
        std::size_t n = 0;
        SWH_REQUIRE(static_cast<bool>(in >> n) && n <= kTopK,
                    "malformed reference file");
        q.resize(n);
        for (core::Hit& h : q) {
            SWH_REQUIRE(static_cast<bool>(in >> h.db_index >> h.score),
                        "malformed reference file");
        }
    }
    std::string rest;
    SWH_REQUIRE(!(in >> rest), "reference file has more queries than input");
    return hits;
}

std::unique_ptr<engines::ComputeEngine> make_engine(
    const Workload& w, unsigned slave, const engines::EngineConfig& c) {
    auto cpu = std::make_unique<engines::CpuEngine>(c);
    if (slave < w.full_slaves) return cpu;
    return std::make_unique<engines::ThrottledEngine>(std::move(cpu),
                                                      kThrottledGcups);
}

std::string slave_label(const Workload& w, unsigned slave) {
    return slave < w.full_slaves
               ? "cpu" + std::to_string(slave)
               : "slow" + std::to_string(slave - w.full_slaves);
}

// ---- One batch run -------------------------------------------------------

/// Instruments of a traced run. A run without Probes uses the bare
/// engines and policy and records nothing.
struct Probes {
    explicit Probes(unsigned slaves)
        : engines(slaves) {}

    obs::TraceRecorder recorder{1u << 16};
    obs::MetricsRegistry metrics;
    std::vector<pb::EngineLedger> engines;
    std::vector<double> policy_us;
    pb::SchedLedger sched;
    Clock::time_point epoch;
};

struct RunResult {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double end_s = 0.0;  ///< run() return, seconds after the probes' epoch
    runtime::RunReport report;
};

double process_cpu_s() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Resets the process's resident-set high-water mark (VmHWM) to its
/// current resident set, so each run's peak can be read on its own.
void reset_peak_rss() {
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(1 << 12, '\n');
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::unique_ptr<engines::ComputeEngine> slave_engine(
    const Workload& w, unsigned slave, const engines::EngineConfig& c,
    Probes* probes, obs::TraceLane* own_lane) {
    std::unique_ptr<engines::ComputeEngine> e = make_engine(w, slave, c);
    if (probes == nullptr) return e;
    probes->engines[slave].full_speed = slave < w.full_slaves;
    return std::make_unique<pb::TimedEngine>(
        std::move(e), probes->engines[slave], probes->epoch, own_lane);
}

/// Joins every thread it holds, on exception paths too.
struct Joiner {
    std::vector<std::thread> threads;
    ~Joiner() {
        for (std::thread& t : threads) {
            if (t.joinable()) t.join();
        }
    }
};

RunResult run_once(const Workload& w, bool socket, const Inputs& in,
                   Probes* probes) {
    runtime::RuntimeOptions opts;
    opts.top_k = kTopK;
    opts.sched.workload_adjust = true;
    const engines::EngineConfig config =
        engine_config(probes != nullptr ? &probes->metrics : nullptr);
    std::unique_ptr<core::AllocationPolicy> policy = core::make_pss();
    if (probes != nullptr) {
        opts.trace = &probes->recorder;
        opts.metrics = &probes->metrics;
        opts.sched_observer = &probes->sched;
        policy = std::make_unique<pb::TimedPolicy>(
            std::move(policy), probes->policy_us,
            &probes->recorder.lane("bench:master"));
        probes->epoch = Clock::now();
    }

    RunResult r;
    if (!socket) {
        std::vector<runtime::SlaveSpec> slaves;
        for (unsigned i = 0; i < w.slaves(); ++i) {
            slaves.push_back(runtime::SlaveSpec{
                slave_label(w, i), slave_engine(w, i, config, probes, nullptr)});
        }
        runtime::HybridRuntime rt(in.database, in.queries, opts);
        const double cpu0 = process_cpu_s();
        const Clock::time_point t0 = Clock::now();
        if (probes != nullptr) probes->epoch = t0;
        r.report = rt.run(std::move(slaves), std::move(policy));
        const Clock::time_point t1 = Clock::now();
        r.cpu_s = process_cpu_s() - cpu0;
        r.wall_s = seconds_between(t0, t1);
        r.end_s = r.wall_s;
        return r;
    }

    runtime::RemoteMasterOptions mo;
    mo.runtime = opts;
    mo.expect_slaves = w.slaves();
    runtime::RemoteMaster master(in.database, in.queries, mo);
    const std::uint16_t port = master.listen();
    std::vector<obs::TraceLane*> own_lanes(w.slaves(), nullptr);
    if (probes != nullptr) {
        for (unsigned i = 0; i < w.slaves(); ++i) {
            own_lanes[i] = &probes->recorder.lane("bench:" + slave_label(w, i));
        }
    }
    std::vector<runtime::RemoteSlaveResult> slaves(w.slaves());
    {
        Joiner joiner;
        for (unsigned i = 0; i < w.slaves(); ++i) {
            joiner.threads.emplace_back([&, i] {
                runtime::RemoteSlaveOptions so;
                so.port = port;
                so.label = slave_label(w, i);
                try {
                    slaves[i] = runtime::run_remote_slave(
                        in.database, in.queries, so,
                        [&, i](const net::wire::Welcome& welcome) {
                            engines::EngineConfig c = config;
                            c.top_k = welcome.top_k;
                            return slave_engine(w, i, c, probes, own_lanes[i]);
                        });
                } catch (const std::exception& e) {
                    slaves[i].error = e.what();
                }
            });
        }
        const double cpu0 = process_cpu_s();
        const Clock::time_point t0 = Clock::now();
        r.report = master.run(std::move(policy));
        const Clock::time_point t1 = Clock::now();
        r.cpu_s = process_cpu_s() - cpu0;
        r.wall_s = seconds_between(t0, t1);
        r.end_s = probes != nullptr ? seconds_between(probes->epoch, t1)
                                    : r.wall_s;
    }
    for (const runtime::RemoteSlaveResult& s : slaves) {
        if (!s.error.empty()) {
            throw std::runtime_error("remote slave failed: " + s.error);
        }
    }
    return r;
}

// ---- Checking and reporting -----------------------------------------------

/// Counts every query checked and every one that failed: its task was
/// given up on, or its top-k differs from the exhaustive reference.
struct Checker {
    const Hits* reference = nullptr;
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void check(const runtime::RunReport& report) {
        attempted += reference->size();
        std::vector<bool> bad(reference->size(), false);
        for (const runtime::RunReport::FailedTask& f : report.failed_tasks) {
            if (f.query_index < bad.size()) bad[f.query_index] = true;
        }
        for (std::size_t q = 0; q < reference->size(); ++q) {
            if (q >= report.hits.size() || report.hits[q] != (*reference)[q]) {
                bad[q] = true;
            }
        }
        failed += static_cast<std::size_t>(
            std::count(bad.begin(), bad.end(), true));
    }
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i == 0 ? "" : ", ") + json_string(ms[i].name) +
               ": {\"value\": " + json_number(ms[i].value) +
               ", \"unit\": " + json_string(ms[i].unit) + "}";
    }
    return out + "}";
}

/// Runs `rep` until `seconds` have passed, at least `min_reps` times.
template <typename Rep>
void repeat_for(double seconds, std::size_t min_reps, Rep&& rep) {
    const Clock::time_point start = Clock::now();
    std::size_t reps = 0;
    while (reps < min_reps ||
           seconds_between(start, Clock::now()) < seconds) {
        rep();
        ++reps;
    }
}

/// Per-layer numbers of one traced run, in BENCHMARK.json's order.
std::vector<Metric> run_ledger(const Workload& w, const Inputs& in,
                               const RunResult& r, const Probes& p) {
    std::vector<Metric> m;
    const std::vector<pb::EngineLedger>& eng = p.engines;

    std::size_t calls = 0;
    double busy = 0.0, busy_full = 0.0, busy_max = 0.0;
    std::uint64_t cells_full = 0;
    double first_done = r.end_s;
    std::vector<double> task_ms, gap_ms;
    for (const pb::EngineLedger& e : eng) {
        calls += e.calls;
        busy += e.busy_s;
        busy_max = std::max(busy_max, e.busy_s);
        task_ms.insert(task_ms.end(), e.task_ms.begin(), e.task_ms.end());
        gap_ms.insert(gap_ms.end(), e.gap_ms.begin(), e.gap_ms.end());
        if (e.full_speed) {
            busy_full += e.busy_s;
            cells_full += e.cells;
            first_done = std::min(first_done, e.last_return_s);
        }
    }
    const double n_full = static_cast<double>(w.full_slaves);
    m.push_back({"engine.calls", static_cast<double>(calls), "count"});
    m.push_back({"engine.busy_s", busy, "s"});
    m.push_back({"engine.gcups", static_cast<double>(cells_full) / busy_full / 1e9,
                 "GCUPS"});
    const pb::Tail task = pb::tail_of(task_ms);
    m.push_back({"engine.task_ms.p50", task.p50, "ms"});
    m.push_back({"engine.task_ms.tail", task.value, "ms"});
    m.push_back({"engine.task_ms.tail_pct", task.pct, "percentile"});
    m.push_back({"engine.task_ms.n", static_cast<double>(task.n), "count"});

    const obs::MetricsSnapshot& snap = r.report.metrics;
    const double scans = static_cast<double>(calls) *
                         static_cast<double>(in.database.size());
    const double interseq =
        static_cast<double>(snap.counter("scan.dispatch.cohorts_interseq"));
    const double striped = static_cast<double>(
        snap.counter("scan.dispatch.cohorts_striped_head"));
    m.push_back({"align.filter_selectivity",
                 1.0 - static_cast<double>(
                           snap.counter("engine.cpu.filter.pruned")) / scans,
                 "ratio"});
    m.push_back({"align.filter_offs",
                 static_cast<double>(snap.counter("engine.cpu.filter.offs")),
                 "count"});
    m.push_back({"align.interseq_frac",
                 interseq + striped > 0 ? interseq / (interseq + striped) : 0.0,
                 "ratio"});
    m.push_back({"align.escalations16",
                 static_cast<double>(
                     snap.counter("scan.dispatch.escalations16")),
                 "count"});

    std::size_t package_max = 0;
    for (const pb::SchedLedger::Package& pk : p.sched.packages) {
        package_max = std::max(package_max, pk.tasks.size());
    }
    const double computed = static_cast<double>(r.report.computed_cells);
    m.push_back({"sched.packages",
                 static_cast<double>(p.sched.packages.size()), "count"});
    m.push_back({"sched.package_size.max", static_cast<double>(package_max),
                 "tasks"});
    m.push_back({"sched.replicas", static_cast<double>(p.sched.replicas),
                 "count"});
    m.push_back({"sched.waste_frac",
                 (computed - static_cast<double>(r.report.accepted_cells)) /
                     computed,
                 "ratio"});
    m.push_back({"sched.policy_us.p50", pb::median(p.policy_us), "us"});

    const pb::Tail gap = pb::tail_of(gap_ms);
    m.push_back({"runtime.idle_frac", 1.0 - busy_full / (n_full * r.wall_s),
                 "ratio"});
    m.push_back({"runtime.tail_s", r.end_s - first_done, "s"});
    m.push_back({"runtime.imbalance",
                 busy_max / (busy / static_cast<double>(w.slaves())), "ratio"});
    m.push_back({"runtime.dispatch_gap_ms.p50", gap.p50, "ms"});
    m.push_back({"runtime.dispatch_gap_ms.tail", gap.value, "ms"});
    m.push_back({"runtime.dispatch_gap_ms.tail_pct", gap.pct, "percentile"});
    m.push_back({"runtime.dispatch_gap_ms.n", static_cast<double>(gap.n),
                 "count"});

    // The run's own message mix, re-encoded and decoded by the codec.
    const std::vector<core::Task> tasks =
        core::make_tasks(in.queries, in.database.residues());
    std::vector<net::MasterMsg> up;
    std::vector<net::SlaveMsg> down;
    for (const net::MsgProgress& msg : p.sched.progress) up.emplace_back(msg);
    for (std::size_t i = 0; i < eng.size(); ++i) {
        for (const core::TaskResult& res : eng[i].results) {
            up.emplace_back(net::MsgTaskDone{static_cast<core::PeId>(i),
                                             res.task, res});
        }
    }
    for (const pb::SchedLedger::Package& pk : p.sched.packages) {
        net::MsgAssign assign;
        for (const core::TaskId t : pk.tasks) assign.tasks.push_back(tasks.at(t));
        down.emplace_back(std::move(assign));
    }
    const pb::WireCost wire = pb::time_wire_mix(up, down, 0.05);
    m.push_back({"net.wire_encode_us", wire.encode_us, "us"});
    m.push_back({"net.wire_decode_us", wire.decode_us, "us"});
    m.push_back({"net.wire_frames", static_cast<double>(up.size() + down.size()),
                 "count"});
    return m;
}

/// Appends `run` to `setup` as one timeline: the run's lanes restart at
/// zero (HybridRuntime resets the recorder epoch), so they are shifted to
/// begin after the set-up.
obs::Trace combined_trace(obs::Trace setup, const obs::Trace& run) {
    double offset = 0.0;
    for (const obs::TraceLaneData& l : setup.lanes) {
        for (const obs::TraceEvent& e : l.events) offset = std::max(offset, e.t);
    }
    for (obs::TraceLaneData l : run.lanes) {
        for (obs::TraceEvent& e : l.events) e.t += offset;
        setup.lanes.push_back(std::move(l));
    }
    return setup;
}

std::string provenance_json(const Workload& w, const Inputs& in,
                            const std::string& seed, bool comparable) {
    const HostInfo h = host_info();
    std::ostringstream os;
    os << "{\"workload\": " << json_string(w.name)
       << ", \"seed\": " << json_string(seed)
       << ", \"queries\": " << in.queries.size()
       << ", \"query_lengths\": [" << w.min_len << ", " << w.max_len << "]"
       << ", \"db_sequences\": " << in.database.size()
       << ", \"db_residues\": " << in.database.residues()
       << ", \"transport\": " << json_string(w.socket ? "socket" : "inproc")
       << ", \"full_slaves\": " << w.full_slaves
       << ", \"throttled_slaves\": " << w.throttled_slaves
       << ", \"throttled_gcups\": " << json_number(kThrottledGcups)
       << ", \"policy\": \"pss\", \"workload_adjust\": true, \"top_k\": "
       << kTopK << ", \"isa\": "
       << json_string(simd::to_string(simd::best_supported()))
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"comparable\": " << (comparable ? "true" : "false")
       << ", \"host\": {\"cpu_model\": " << json_string(h.cpu_model)
       << ", \"hardware_threads\": " << h.hardware_threads
       << ", \"compiler\": " << json_string(h.compiler)
       << ", \"git_sha\": " << json_string(h.git_sha)
       << ", \"build_flags\": " << json_string(h.build_flags) << "}}";
    return os.str();
}

constexpr std::size_t kSetupReps = 15;

int run_benchmark(const Workload& w, const std::string& dir,
                  const std::string& seed, double seconds, bool traced,
                  const std::string& trace_out) {
    const unsigned nproc = std::thread::hardware_concurrency();
    const bool comparable = nproc >= 4;
    if (!comparable) {
        std::cerr << "warning: nproc = " << nproc
                  << " < 4; the result is not comparable with 4-core runs\n";
    }

    // Set-up, repeated; the median repetition stands for all of them.
    std::optional<obs::TraceRecorder> setup_rec;
    if (traced) setup_rec.emplace();
    obs::TraceLane* setup_lane =
        traced ? &setup_rec->lane("bench:setup") : nullptr;
    Inputs in;
    std::vector<SetupTimes> setups;
    for (std::size_t i = 0; i < kSetupReps; ++i) {
        setups.push_back(set_up(dir, simd::best_supported(), in, setup_lane));
    }
    std::sort(setups.begin(), setups.end(),
              [](const SetupTimes& a, const SetupTimes& b) {
                  return a.total() < b.total();
              });
    const SetupTimes setup = setups[kSetupReps / 2];

    const Hits reference = load_reference(dir, in.queries.size());
    Checker checker{&reference};

    // Bare runs on the workload's own transport give the end-to-end
    // numbers; `alt_walls` holds bare runs on the other transport.
    std::vector<double> walls, cpus, rss, alt_walls;
    Hits untraced_hits;
    auto bare_rep = [&](bool socket) {
        reset_peak_rss();
        RunResult r = run_once(w, socket, in, nullptr);
        checker.check(r.report);
        if (socket != w.socket) {
            alt_walls.push_back(r.wall_s);
            return;
        }
        walls.push_back(r.wall_s);
        cpus.push_back(r.cpu_s);
        rss.push_back(peak_rss_mb());
        if (untraced_hits.empty()) untraced_hits = std::move(r.report.hits);
    };

    std::vector<Metric> e2e, layers;
    std::map<std::string, bool> checks;
    double ledger_wall_s = 0.0;  // wall time of the run the ledger describes
    if (!traced) {
        // At least three, so one unlucky replica tail cannot set the median.
        repeat_for(seconds, 3, [&] { bare_rep(w.socket); });
    } else {
        const double phase = seconds / 3.0;
        repeat_for(phase, 1, [&] { bare_rep(w.socket); });

        struct TracedRep {
            double wall_s = 0.0;
            std::vector<Metric> ledger;
            obs::Trace trace;
            bool same_topk = false;
        };
        std::vector<TracedRep> reps;
        repeat_for(phase, 1, [&] {
            Probes probes(w.slaves());
            const RunResult r = run_once(w, w.socket, in, &probes);
            checker.check(r.report);
            TracedRep rep;
            rep.trace = probes.recorder.drain();
            if (w.socket) {
                // RemoteMaster does not forward sched_observer; its own
                // scheduler tracer wrote the same decisions to "master".
                for (const obs::TraceLaneData& l : rep.trace.lanes) {
                    if (l.label == "master") {
                        pb::replay_sched_events(l, probes.sched);
                    }
                }
            }
            rep.wall_s = r.wall_s;
            rep.ledger = run_ledger(w, in, r, probes);
            rep.same_topk = r.report.hits == untraced_hits;
            reps.push_back(std::move(rep));
        });
        repeat_for(phase, 1, [&] { bare_rep(!w.socket); });

        std::sort(reps.begin(), reps.end(),
                  [](const TracedRep& a, const TracedRep& b) {
                      return a.wall_s < b.wall_s;
                  });
        const TracedRep& mid = reps[(reps.size() - 1) / 2];
        ledger_wall_s = mid.wall_s;
        std::vector<double> traced_walls;
        bool same_topk = true;
        for (const TracedRep& rep : reps) {
            traced_walls.push_back(rep.wall_s);
            same_topk = same_topk && rep.same_topk;
        }
        const double inproc = w.socket ? pb::median(alt_walls) : pb::median(walls);
        const double socket = w.socket ? pb::median(walls) : pb::median(alt_walls);

        layers.push_back({"io.read_s", setup.io_s, "s"});
        layers.push_back({"db.pack_s", setup.pack_s, "s"});
        layers.push_back({"db.interleave_s", setup.interleave_s, "s"});
        layers.insert(layers.end(), mid.ledger.begin(), mid.ledger.end());
        layers.push_back({"net.socket_overhead", socket / inproc, "ratio"});
        layers.push_back({"obs.trace_overhead",
                          pb::median(traced_walls) / pb::median(walls),
                          "ratio"});

        const obs::Trace trace = combined_trace(setup_rec->drain(), mid.trace);
        checks["trace_complete"] = trace.total_dropped() == 0;
        checks["traced_topk_equals_untraced"] = same_topk;
        std::ofstream tf(trace_out);
        SWH_REQUIRE(static_cast<bool>(tf), "cannot write the trace file");
        obs::export_chrome_json(trace, tf);
    }

    const double failed_frac = static_cast<double>(checker.failed) /
                               static_cast<double>(checker.attempted);
    e2e.push_back({"wall_s", pb::median(walls), "s"});
    e2e.push_back({"cpu_s", pb::median(cpus), "s"});
    e2e.push_back({"setup_s", setup.total(), "s"});
    e2e.push_back({"peak_rss_mb", *std::max_element(rss.begin(), rss.end()),
                   "MiB"});
    layers.push_back({"failed_frac", failed_frac, "ratio"});
    checks["topk_matches_reference"] = checker.failed == 0;

    bool correct = true;
    std::string checks_json = "{";
    for (const auto& [name, ok] : checks) {
        checks_json += (checks_json.size() > 1 ? ", " : "") +
                       json_string(name) + ": " + (ok ? "true" : "false");
        correct = correct && ok;
    }
    checks_json += "}";

    std::vector<Metric> all = e2e;
    all.insert(all.end(), layers.begin(), layers.end());
    std::string reps_json = "[";
    for (std::size_t i = 0; i < walls.size(); ++i) {
        reps_json += (i == 0 ? "" : ", ") + json_number(walls[i]);
    }
    reps_json += "]";
    std::cout << "{\"provenance\": " << provenance_json(w, in, seed, comparable)
              << ", \"checks\": " << checks_json
              << ", \"wall_reps_s\": " << reps_json
              << ", \"ledger_wall_s\": " << json_number(ledger_wall_s)
              << ", \"metrics\": " << metrics_json(all) << "}\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << checker.attempted
              << ", \"failed\": " << checker.failed
              << ", \"metrics\": " << metrics_json(traced ? layers : e2e)
              << "}" << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    ArgParser args("bench_e2e",
                   "end-to-end search benchmark with a per-layer ledger");
    args.add_positional("step", "gen | ref | run");
    args.add_option("workload", "paper40 | hetero_nohit | short_socket",
                    "paper40");
    args.add_option("seed", "input seed (gen; recorded by run)", "1");
    args.add_option("dir", "directory holding the workload's files", ".");
    args.add_option("seconds", "measure for this long (run)", "20");
    args.add_option("trace", "1 = per-layer ledger run (run)", "0");
    args.add_option("trace-out", "Chrome trace JSON path (run --trace 1)",
                    "trace.json");
    args.add_flag("toy", "toy sizes, for the ledger self-test");
    try {
        if (!args.parse(argc, argv)) return 0;
        const Workload& w = find_workload(args.get("workload"),
                                          args.get_flag("toy"));
        const std::string& step = args.get("step");
        const std::string& dir = args.get("dir");
        if (step == "gen") {
            generate(w, static_cast<std::uint64_t>(args.get_int("seed")), dir);
            return 0;
        }
        if (step == "ref") {
            make_reference(dir);
            return 0;
        }
        SWH_REQUIRE(step == "run", "step must be gen, ref or run");
        const long long trace = args.get_int("trace");
        SWH_REQUIRE(trace == 0 || trace == 1, "--trace must be 0 or 1");
        return run_benchmark(w, dir, args.get("seed"),
                             args.get_double("seconds"), trace == 1,
                             args.get("trace-out"));
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
}
