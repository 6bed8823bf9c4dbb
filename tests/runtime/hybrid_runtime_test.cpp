#include "runtime/hybrid_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "align/sw_scalar.hpp"
#include "db/database.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/sim_gpu_engine.hpp"
#include "engines/throttled_engine.hpp"
#include "obs/balance.hpp"
#include "obs/sched_log.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace swh::runtime {
namespace {

const align::ScoreMatrix& blosum() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

engines::EngineConfig engine_config() {
    engines::EngineConfig c;
    c.matrix = &blosum();
    c.gap = {10, 2};
    c.top_k = 3;
    c.isa = simd::best_supported();
    c.progress_grain = 100'000;
    return c;
}

db::Database test_db(std::size_t n = 30, std::uint64_t seed = 31) {
    db::DatabaseSpec spec;
    spec.name = "rt";
    spec.num_sequences = n;
    spec.length.min_len = 20;
    spec.length.max_len = 80;
    spec.seed = seed;
    return db::Database::generate(spec);
}

std::vector<align::Sequence> test_queries(std::size_t n = 8) {
    return db::make_query_set(n, 30, 90, 33);
}

std::unique_ptr<engines::ComputeEngine> cpu_engine() {
    return std::make_unique<engines::CpuEngine>(engine_config());
}

RuntimeOptions fast_options() {
    RuntimeOptions o;
    o.notify_period_s = 0.01;
    o.top_k = 3;
    return o;
}

// Reference: serially computed top-k hits per query.
std::vector<std::vector<core::Hit>> reference_hits(
    const db::Database& database, const std::vector<align::Sequence>& queries,
    std::size_t k) {
    std::vector<std::vector<core::Hit>> out;
    for (const auto& q : queries) {
        std::vector<core::Hit> hits;
        for (std::size_t i = 0; i < database.size(); ++i) {
            hits.push_back(core::Hit{
                static_cast<std::uint32_t>(i),
                align::sw_score_affine(q.residues, database[i].residues,
                                       blosum(), {10, 2})});
        }
        std::sort(hits.begin(), hits.end(),
                  [](const core::Hit& a, const core::Hit& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.db_index < b.db_index;
                  });
        hits.resize(std::min(hits.size(), k));
        out.push_back(std::move(hits));
    }
    return out;
}

TEST(HybridRuntime, SingleSlaveMatchesSerialReference) {
    const db::Database database = test_db();
    const auto queries = test_queries();
    HybridRuntime rt(database, queries, fast_options());
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"sse0", cpu_engine()});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_EQ(report.accepted_cells, report.computed_cells);
    EXPECT_EQ(report.slaves[0].results_accepted, queries.size());
    EXPECT_GT(report.gcups, 0.0);
}

TEST(HybridRuntime, HeterogeneousSlavesProduceSameHits) {
    const db::Database database = test_db(40, 35);
    const auto queries = test_queries(10);
    HybridRuntime rt(database, queries, fast_options());
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{
        "gpu0", std::make_unique<engines::SimGpuEngine>(
                    engine_config(), engines::GpuDeviceModel{}, false)});
    slaves.push_back(SlaveSpec{"sse0", cpu_engine()});
    slaves.push_back(SlaveSpec{"sse1", cpu_engine()});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    std::size_t total_accepted = 0;
    for (const SlaveReport& s : report.slaves) {
        total_accepted += s.results_accepted;
    }
    EXPECT_EQ(total_accepted, queries.size());
}

TEST(HybridRuntime, WorkloadAdjustmentRacesToTheFastPe) {
    // One deliberately slow slave and one fast one: the fast one must be
    // able to steal (replicate) the slow slave's straggler task, and the
    // duplicate completion must be discarded, not double-merged.
    const db::Database database = test_db(20, 37);
    const auto queries = test_queries(4);
    RuntimeOptions options = fast_options();
    options.sched.workload_adjust = true;
    HybridRuntime rt(database, queries, options);

    std::vector<SlaveSpec> slaves;
    // Slow: ~20x slower than the plain engine.
    const std::uint64_t db_res = database.residues();
    const double slow_gcups =
        static_cast<double>(queries[0].size()) * db_res / 0.4 / 1e9;
    slaves.push_back(SlaveSpec{
        "slow", std::make_unique<engines::ThrottledEngine>(cpu_engine(),
                                                           slow_gcups)});
    slaves.push_back(SlaveSpec{"fast", cpu_engine()});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    // Duplicates may or may not occur depending on timing; when they do,
    // computed > accepted and the discard counters agree.
    EXPECT_GE(report.computed_cells, report.accepted_cells);
    std::size_t discarded = 0;
    for (const SlaveReport& s : report.slaves) {
        discarded += s.results_discarded;
    }
    EXPECT_EQ(discarded, report.completions_discarded);
}

TEST(HybridRuntime, CancelLosersStopsReplicas) {
    const db::Database database = test_db(20, 39);
    const auto queries = test_queries(4);
    RuntimeOptions options = fast_options();
    options.sched.workload_adjust = true;
    HybridRuntime rt(database, queries, options);

    std::vector<SlaveSpec> slaves;
    const double slow_gcups = static_cast<double>(queries[0].size()) *
                              database.residues() / 0.5 / 1e9;
    slaves.push_back(SlaveSpec{
        "slow", std::make_unique<engines::ThrottledEngine>(cpu_engine(),
                                                           slow_gcups)});
    slaves.push_back(SlaveSpec{"fast", cpu_engine()});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());
    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
}

TEST(HybridRuntime, SelfSchedulingPolicyCompletesEverything) {
    const db::Database database = test_db(25, 41);
    const auto queries = test_queries(6);
    HybridRuntime rt(database, queries, fast_options());
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"a", cpu_engine()});
    slaves.push_back(SlaveSpec{"b", cpu_engine()});
    const RunReport report =
        rt.run(std::move(slaves), core::make_self_scheduling());
    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
}

TEST(HybridRuntime, LateJoinerContributes) {
    const db::Database database = test_db(25, 43);
    const auto queries = test_queries(8);
    HybridRuntime rt(database, queries, fast_options());
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"early", cpu_engine()});
    SlaveSpec late{"late", cpu_engine()};
    late.join_delay_s = 0.05;
    slaves.push_back(std::move(late));
    const RunReport report = rt.run(std::move(slaves), core::make_pss());
    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
}

TEST(HybridRuntime, EarlyLeaverTasksAreRescued) {
    const db::Database database = test_db(25, 45);
    const auto queries = test_queries(8);
    RuntimeOptions options = fast_options();
    HybridRuntime rt(database, queries, options);
    std::vector<SlaveSpec> slaves;
    SlaveSpec leaver{"leaver", cpu_engine()};
    leaver.leave_after_tasks = 1;
    slaves.push_back(std::move(leaver));
    // The stayer joins once the leaver has completed its task and left:
    // a run that ends at its last accepted result would otherwise shut
    // the leaver down mid-task whenever the stayer finishes first.
    slaves.push_back(SlaveSpec{"stayer", cpu_engine(), 0.05});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());
    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_TRUE(report.slaves[0].left_early);
    EXPECT_GE(report.slaves[1].results_accepted, 7u);
}

TEST(HybridRuntime, ChannelLatencyDoesNotBreakProtocol) {
    const db::Database database = test_db(15, 47);
    const auto queries = test_queries(4);
    RuntimeOptions options = fast_options();
    options.channel_delay_s = 0.005;
    HybridRuntime rt(database, queries, options);
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"a", cpu_engine()});
    slaves.push_back(SlaveSpec{"b", cpu_engine()});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());
    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
}

/// Trace time of the master's last accepted completion.
double last_accept_s(const obs::Trace& trace) {
    double last = 0.0;
    for (const obs::TraceLaneData& lane : trace.lanes) {
        if (lane.label != "master") continue;
        for (const obs::TraceEvent& ev : lane.events) {
            if (ev.kind == obs::EventKind::CompletedAccepted) {
                last = std::max(last, ev.t);
            }
        }
    }
    return last;
}

TEST(HybridRuntime, RunEndsAtLastAcceptedResult) {
    // The slow slave's task takes about a second; the fast slave joins
    // 50 ms later, runs everything else and replicates that task. Once
    // the replica wins, the slow slave's result is worthless: run()
    // must return right away, not when the loser finishes.
    const db::Database database = test_db(30, 49);
    const auto queries = test_queries(4);
    obs::TraceRecorder trace;
    RuntimeOptions options = fast_options();
    options.trace = &trace;
    HybridRuntime rt(database, queries, options);

    std::size_t min_len = queries[0].size();
    for (const auto& q : queries) min_len = std::min(min_len, q.size());
    const double slow_gcups = static_cast<double>(min_len) *
                              static_cast<double>(database.residues()) /
                              1.0 / 1e9;
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{
        "slow", std::make_unique<engines::ThrottledEngine>(cpu_engine(),
                                                           slow_gcups)});
    slaves.push_back(SlaveSpec{"fast", cpu_engine(), 0.05});
    const RunReport report =
        rt.run(std::move(slaves), core::make_self_scheduling());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_GE(report.slaves[0].tasks_cancelled, 1u);
    EXPECT_EQ(report.slaves[1].results_accepted, queries.size());
    EXPECT_LT(report.wall_seconds - last_accept_s(trace.drain()), 0.1);
}

TEST(HybridRuntime, MasterLaneOutlastsOverflowingSlaveRings) {
    // Rings of 8 events: the slave span and channel lanes overflow, but
    // the master lane grows, so the weight trajectories stay whole
    // while the balance audit, which reads the slave lanes, refuses
    // with their count (the channel lanes it does not read).
    const db::Database database = test_db();
    const auto queries = test_queries();
    obs::TraceRecorder trace(8);
    RuntimeOptions options = fast_options();
    options.trace = &trace;
    HybridRuntime rt(database, queries, options);
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"sse0", cpu_engine()});
    slaves.push_back(SlaveSpec{"sse1", cpu_engine()});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());
    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));

    const obs::Trace drained = trace.drain();
    std::size_t progress_events = 0;
    std::uint64_t slave_dropped = 0;
    for (const obs::TraceLaneData& lane : drained.lanes) {
        if (lane.label != "master") {
            if (!obs::is_channel_lane(lane.label)) {
                slave_dropped += lane.dropped;
            }
            continue;
        }
        EXPECT_EQ(lane.dropped, 0u);
        EXPECT_GT(lane.events.size(), 8u);
        for (const obs::TraceEvent& e : lane.events) {
            if (e.kind == obs::EventKind::Progress) ++progress_events;
        }
    }
    ASSERT_GT(slave_dropped, 0u);
    EXPECT_GT(progress_events, 0u);
    EXPECT_EQ(obs::weight_samples(drained).size(), progress_events);
    try {
        obs::require_audit_complete(drained);
        ADD_FAILURE() << "the audit read a truncated trace";
    } catch (const IoError& e) {
        EXPECT_EQ(std::string(e.what()).rfind(
                      "obs.trace.dropped " + std::to_string(slave_dropped),
                      0),
                  0u)
            << e.what();
    }
}

/// Paces each task at `rate_cps`, then credits a quarter of its cells
/// and the other three quarters in one burst just before returning: the
/// shape of the scan funnel crediting pruned subjects at once. Records
/// every task's true rate (cells over the engine's own wall time).
class BurstEngine final : public engines::ComputeEngine {
public:
    BurstEngine(double rate_cps, std::mutex& mu, std::vector<double>& rates)
        : inner_(cpu_engine()), rate_cps_(rate_cps), mu_(mu), rates_(rates) {}

    std::string_view name() const override { return "burst"; }
    core::PeKind kind() const override { return inner_->kind(); }

    core::TaskResult execute(const align::Sequence& query,
                             std::uint32_t query_index, core::TaskId task,
                             const db::Database& database,
                             engines::ExecutionObserver* observer) override {
        const Timer timer;
        core::TaskResult result =
            inner_->execute(query, query_index, task, database, nullptr);
        std::this_thread::sleep_for(std::chrono::duration<double>(
            static_cast<double>(result.cells) / rate_cps_));
        const std::uint64_t head = result.cells / 4;
        observer->on_cells(head);
        observer->on_cells(result.cells - head);
        const double seconds = timer.seconds();
        const std::lock_guard<std::mutex> lock(mu_);
        rates_.push_back(static_cast<double>(result.cells) / seconds);
        return result;
    }

private:
    std::unique_ptr<engines::ComputeEngine> inner_;
    double rate_cps_;
    std::mutex& mu_;
    std::vector<double>& rates_;
};

struct RateLog final : core::SchedObserver {
    std::vector<double> samples;
    std::size_t max_package = 0;

    void on_progress(core::PeId, double, double cells_per_second,
                     double) override {
        samples.push_back(cells_per_second);
    }
    void on_package_sized(core::PeId, std::size_t tasks, bool,
                          double) override {
        max_package = std::max(max_package, tasks);
    }
};

TEST(HybridRuntime, EndOfTaskBurstDoesNotInflateRate) {
    // The end-of-task sample must cover the whole task, not the
    // microseconds since the last periodic sample: read over that tail
    // window, the burst looks thousands of times faster than the PE and
    // PSS hands one slave most of the remaining tasks in one package.
    const db::Database database = test_db();
    const auto queries = test_queries(12);
    RuntimeOptions options = fast_options();
    obs::MetricsRegistry metrics;
    options.metrics = &metrics;
    RateLog log;
    options.sched_observer = &log;
    HybridRuntime rt(database, queries, options);

    // Every task sleeps at least three notify periods, so each one sends
    // a periodic sample before its burst.
    std::size_t min_len = queries[0].size();
    for (const auto& q : queries) min_len = std::min(min_len, q.size());
    const double rate_cps = static_cast<double>(min_len) *
                            static_cast<double>(database.residues()) /
                            (3 * options.notify_period_s);
    std::mutex mu;
    std::vector<double> task_rates;
    std::vector<SlaveSpec> slaves;
    for (const char* label : {"a", "b", "c"}) {
        slaves.push_back(SlaveSpec{
            label, std::make_unique<BurstEngine>(rate_cps, mu, task_rates)});
    }
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    ASSERT_FALSE(task_rates.empty());
    const double true_rate =
        *std::max_element(task_rates.begin(), task_rates.end());
    ASSERT_FALSE(log.samples.empty());
    for (const double sample : log.samples) {
        EXPECT_LE(sample, 1.5 * true_rate);
    }
    EXPECT_LE(log.max_package, 2u);
    const obs::HistogramSummary* err =
        report.metrics.histogram("sched.rate_estimate_rel_error");
    ASSERT_NE(err, nullptr);
    EXPECT_LT(err->max, 10.0);
}

}  // namespace
}  // namespace swh::runtime
