// Runtime-vs-simulator balance crosscheck (the tentpole's acceptance
// gate): the same Fig.-5-shaped workload — 20 equal tasks on one fast
// PE (6x) and three slow PEs (1x) — executed both by the threaded
// runtime (real threads, throttled engines) and by the DES (virtual
// time), audited through the one shared analyze_balance() path. The
// two executions are different machines entirely, so the agreement
// tolerance is deliberately loose (documented in DESIGN.md): the audit
// must tell the same qualitative story, not reproduce timestamps.
//
// Also hosts the obs-overhead invariant: a run with the full
// observability stack on must return bit-identical top-k hits to the
// same run with it off.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "db/database.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/throttled_engine.hpp"
#include "obs/balance.hpp"
#include "obs/sched_log.hpp"
#include "obs/trace.hpp"
#include "runtime/hybrid_runtime.hpp"
#include "sim/simulator.hpp"

namespace swh::runtime {
namespace {

constexpr double kFastGcups = 0.002;  // 2e6 cells/s — ~45 ms per task
constexpr double kSlowGcups = kFastGcups / 6.0;
constexpr std::size_t kTasks = 20;

const align::ScoreMatrix& blosum() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

engines::EngineConfig engine_config(obs::MetricsRegistry* metrics = nullptr) {
    engines::EngineConfig c;
    c.matrix = &blosum();
    c.gap = {10, 2};
    c.top_k = 3;
    c.isa = simd::best_supported();
    c.progress_grain = 10'000;
    c.metrics = metrics;
    return c;
}

db::Database test_db() {
    db::DatabaseSpec spec;
    spec.name = "xc";
    spec.num_sequences = 30;
    spec.length.min_len = 40;
    spec.length.max_len = 60;
    spec.seed = 71;
    return db::Database::generate(spec);
}

std::vector<align::Sequence> equal_queries() {
    // Equal task sizes, like Fig. 5's 20 identical tasks.
    auto queries = db::make_query_set(kTasks, 60, 60, 77);
    return queries;
}

std::vector<SlaveSpec> throttled_platform(
    obs::MetricsRegistry* metrics = nullptr) {
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{
        "gpu0", std::make_unique<engines::ThrottledEngine>(
                    std::make_unique<engines::CpuEngine>(
                        engine_config(metrics)),
                    kFastGcups, 0.0, "fast")});
    for (int i = 0; i < 3; ++i) {
        slaves.push_back(SlaveSpec{
            "sse" + std::to_string(i),
            std::make_unique<engines::ThrottledEngine>(
                std::make_unique<engines::CpuEngine>(engine_config(metrics)),
                kSlowGcups, 0.0, "slow")});
    }
    return slaves;
}

RuntimeOptions crosscheck_options() {
    RuntimeOptions o;
    o.notify_period_s = 0.02;
    o.top_k = 3;
    o.sched.replicate_only_if_faster = true;
    return o;
}

obs::BalanceReport runtime_balance() {
    const db::Database database = test_db();
    obs::TraceRecorder recorder;
    RuntimeOptions options = crosscheck_options();
    options.trace = &recorder;
    HybridRuntime rt(database, equal_queries(), options);
    const RunReport report =
        rt.run(throttled_platform(), core::make_pss());

    obs::BalanceOptions bopts;
    bopts.horizon_s = report.wall_seconds;
    for (const SlaveReport& s : report.slaves) {
        bopts.cells_by_label.emplace_back(
            s.label, static_cast<double>(s.cells_computed));
    }
    return obs::analyze_balance(recorder.drain(), bopts);
}

obs::BalanceReport des_balance() {
    const db::Database database = test_db();
    const auto queries = equal_queries();
    sim::SimConfig cfg;
    cfg.sched.replicate_only_if_faster = true;
    cfg.policy = core::make_pss;
    cfg.notify_period_s = 0.02;
    cfg.db_residues = database.residues();
    for (const auto& q : queries) cfg.query_lengths.push_back(q.size());
    sim::PeModelSpec fast;
    fast.label = "gpu0";
    fast.kind = core::PeKind::Gpu;
    fast.peak_gcups = kFastGcups;
    cfg.pes.push_back(fast);
    for (int i = 0; i < 3; ++i) {
        sim::PeModelSpec slow;
        slow.label = "sse" + std::to_string(i);
        slow.kind = core::PeKind::SseCore;
        slow.peak_gcups = kSlowGcups;
        cfg.pes.push_back(slow);
    }
    const sim::SimReport r = sim::simulate(cfg);
    return obs::analyze_balance(r.trace, sim::balance_options(r));
}

TEST(BalanceCrosscheck, RuntimeAndSimulatorAgreeOnTheFig5Workload) {
    const obs::BalanceReport rt = runtime_balance();
    const obs::BalanceReport des = des_balance();

    ASSERT_EQ(rt.pe_count, 4u);
    ASSERT_EQ(des.pe_count, 4u);

    // Same qualitative story. Imbalance ratio within the documented
    // tolerance (DESIGN.md: |runtime − DES| ≤ 0.2 — thread scheduling,
    // notify quantisation, and engine startup all perturb the runtime).
    EXPECT_NEAR(rt.imbalance_ratio, des.imbalance_ratio, 0.2);
    // Both runs must be reasonably efficient and attribute the bulk of
    // the tasks to the fast PE.
    EXPECT_GT(rt.efficiency, 0.5);
    EXPECT_GT(des.efficiency, 0.5);
    EXPECT_GT(rt.pes[0].tasks_accepted, rt.pes[1].tasks_accepted);
    EXPECT_GT(des.pes[0].tasks_accepted, des.pes[1].tasks_accepted);
    // The audited horizon covers the whole run and the critical chain
    // is non-trivial in both.
    EXPECT_GT(rt.critical_coverage, 0.5);
    EXPECT_GT(des.critical_coverage, 0.5);
    EXPECT_FALSE(rt.critical_path.empty());
    EXPECT_FALSE(des.critical_path.empty());
    // Every task completed exactly once (accepted) somewhere.
    std::size_t rt_accepted = 0, des_accepted = 0;
    for (const obs::BalancePe& pe : rt.pes) {
        rt_accepted += pe.tasks_accepted;
    }
    for (const obs::BalancePe& pe : des.pes) {
        des_accepted += pe.tasks_accepted;
    }
    EXPECT_GE(rt_accepted, kTasks);
    EXPECT_GE(des_accepted, kTasks);
}

TEST(BalanceCrosscheck, FullObservabilityStackDoesNotChangeTheHits) {
    const db::Database database = test_db();
    const auto queries = equal_queries();

    // Plain run: observability off.
    HybridRuntime plain(database, queries, crosscheck_options());
    const RunReport base = plain.run(throttled_platform(), core::make_pss());

    // Instrumented run: trace recorder and metrics registry (incl.
    // engine counters) both on.
    obs::TraceRecorder recorder;
    obs::MetricsRegistry metrics;
    RuntimeOptions options = crosscheck_options();
    options.trace = &recorder;
    options.metrics = &metrics;
    HybridRuntime instrumented(database, queries, options);
    const RunReport traced =
        instrumented.run(throttled_platform(&metrics), core::make_pss());

    // Top-k hits must be bit-identical: observation must not perturb
    // the computation.
    ASSERT_EQ(base.hits.size(), traced.hits.size());
    for (std::size_t q = 0; q < base.hits.size(); ++q) {
        ASSERT_EQ(base.hits[q].size(), traced.hits[q].size()) << "query " << q;
        for (std::size_t i = 0; i < base.hits[q].size(); ++i) {
            EXPECT_EQ(base.hits[q][i].db_index, traced.hits[q][i].db_index);
            EXPECT_EQ(base.hits[q][i].score, traced.hits[q][i].score);
        }
    }
    // The instrumented run actually observed things, weight
    // trajectories included.
    const obs::Trace trace = recorder.drain();
    EXPECT_GT(trace.total_events(), 0u);
    EXPECT_FALSE(obs::weight_samples(trace).empty());
    EXPECT_EQ(traced.metrics.counter("obs.trace.dropped"), 0u);
}

}  // namespace
}  // namespace swh::runtime
