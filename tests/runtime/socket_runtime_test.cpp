// Multi-process transport equivalence (ISSUE 10 tentpole): the socket
// runtime — RemoteMaster plus run_remote_slave over real loopback TCP —
// must produce top-k hits bit-identical to both the in-process threaded
// runtime and the serial reference, healthy or faulted. The slaves run
// as threads here (same code path as the swhybrid_slave process; only
// main() differs), so sanitizers see the whole exchange.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "align/sw_scalar.hpp"
#include "db/database.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/faulty_engine.hpp"
#include "engines/throttled_engine.hpp"
#include "net/frames.hpp"
#include "net/stream.hpp"
#include "obs/metrics.hpp"
#include "obs/sched_log.hpp"
#include "obs/trace.hpp"
#include "runtime/hybrid_runtime.hpp"
#include "runtime/remote.hpp"

namespace swh::runtime {
namespace {

const align::ScoreMatrix& blosum() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

db::Database test_db(std::size_t n = 30, std::uint64_t seed = 31) {
    db::DatabaseSpec spec;
    spec.name = "sock";
    spec.num_sequences = n;
    spec.length.min_len = 20;
    spec.length.max_len = 80;
    spec.seed = seed;
    return db::Database::generate(spec);
}

std::vector<align::Sequence> test_queries(std::size_t n = 8) {
    return db::make_query_set(n, 30, 90, 33);
}

// Serial oracle: the fault-free baseline every transport must match.
std::vector<std::vector<core::Hit>> reference_hits(
    const db::Database& database,
    const std::vector<align::Sequence>& queries, std::size_t k) {
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

RemoteEngineFactory cpu_factory(engines::FaultPlan* plan = nullptr) {
    return [plan](const net::wire::Welcome& welcome)
               -> std::unique_ptr<engines::ComputeEngine> {
        engines::EngineConfig config;
        config.matrix = &blosum();
        config.gap = {10, 2};
        config.top_k = welcome.top_k;  // master-owned, from the handshake
        config.isa = simd::best_supported();
        std::unique_ptr<engines::ComputeEngine> engine =
            std::make_unique<engines::CpuEngine>(config);
        if (plan != nullptr) {
            engine = std::make_unique<engines::FaultyEngine>(
                std::move(engine), *plan);
        }
        return engine;
    };
}

/// Delays a slave's registration by `delay_s`: the factory runs after
/// the handshake and before the slave loop, so sleeping in it is the
/// socket runtime's late join. A fault test lets its faulty slave work
/// alone until the fault is detected; the run ends at its last accepted
/// result, so a healthy slave present from the start could replicate
/// the faulty slave's task and finish before the fault is ever seen.
RemoteEngineFactory joining_after(double delay_s, RemoteEngineFactory inner) {
    return [delay_s, inner = std::move(inner)](
               const net::wire::Welcome& welcome) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
        return inner(welcome);
    };
}

/// The master-side metric names of a run (scheduler, fault counters,
/// master inbox, trace drops), sorted.
std::vector<std::string> master_metric_names(const obs::MetricsSnapshot& m) {
    std::vector<std::string> names;
    auto keep = [&names](const std::string& name) {
        if (name.starts_with("sched.") || name.starts_with("runtime.faults.") ||
            name == "channel.master_inbox.depth" ||
            name == "obs.trace.dropped") {
            names.push_back(name);
        }
    };
    for (const auto& counter : m.counters) keep(counter.first);
    for (const auto& gauge : m.gauges) keep(gauge.first);
    for (const obs::HistogramSummary& h : m.histograms) keep(h.name);
    std::sort(names.begin(), names.end());
    return names;
}

/// Runs a RemoteMaster against `n` slave threads dialling loopback TCP.
RunReport run_socket(const db::Database& database,
                     const std::vector<align::Sequence>& queries,
                     RemoteMasterOptions options,
                     std::vector<RemoteEngineFactory> factories,
                     std::vector<RemoteSlaveResult>* slave_results = nullptr,
                     std::vector<RemoteSlaveOptions> slave_options = {}) {
    options.expect_slaves = factories.size();
    RemoteMaster master(database, queries, options);
    const std::uint16_t port = master.listen();
    std::vector<RemoteSlaveResult> results(factories.size());
    std::vector<std::thread> slaves;
    for (std::size_t i = 0; i < factories.size(); ++i) {
        slaves.emplace_back([&, i] {
            RemoteSlaveOptions so = i < slave_options.size()
                                        ? slave_options[i]
                                        : RemoteSlaveOptions{};
            so.port = port;
            so.label = "remote" + std::to_string(i);
            results[i] =
                run_remote_slave(database, queries, so, factories[i]);
        });
    }
    RunReport report = master.run(core::make_self_scheduling());
    for (auto& t : slaves) t.join();
    if (slave_results != nullptr) *slave_results = std::move(results);
    return report;
}

TEST(SocketRuntime, LoopbackMatchesInProcessAndReference) {
    const db::Database database = test_db();
    const auto queries = test_queries();
    const auto reference = reference_hits(database, queries, 3);

    RuntimeOptions ro;
    ro.top_k = 3;
    ro.notify_period_s = 0.01;
    ro.sched.workload_adjust = true;

    // In-process threaded baseline.
    engines::EngineConfig config;
    config.matrix = &blosum();
    config.gap = {10, 2};
    config.top_k = 3;
    config.isa = simd::best_supported();
    obs::MetricsRegistry inproc_metrics;
    obs::TraceRecorder inproc_trace;
    ro.metrics = &inproc_metrics;
    ro.trace = &inproc_trace;
    HybridRuntime rt(database, queries, ro);
    std::vector<SlaveSpec> specs;
    specs.push_back(
        {"sse0", std::make_unique<engines::CpuEngine>(config)});
    specs.push_back(
        {"sse1", std::make_unique<engines::CpuEngine>(config)});
    const RunReport inproc =
        rt.run(std::move(specs), core::make_self_scheduling());

    // Same workload over loopback TCP, two slave endpoints.
    obs::MetricsRegistry socket_metrics;
    obs::TraceRecorder socket_trace;
    RemoteMasterOptions mo;
    mo.runtime = ro;
    mo.runtime.metrics = &socket_metrics;
    mo.runtime.trace = &socket_trace;
    std::vector<RemoteSlaveResult> slave_results;
    const RunReport socket =
        run_socket(database, queries, mo, {cpu_factory(), cpu_factory()},
                   &slave_results);

    EXPECT_EQ(socket.hits, reference);
    EXPECT_EQ(socket.hits, inproc.hits);
    EXPECT_TRUE(socket.failed_tasks.empty());
    ASSERT_EQ(slave_results.size(), 2u);
    for (const RemoteSlaveResult& r : slave_results) {
        EXPECT_TRUE(r.connected) << r.error;
        EXPECT_TRUE(r.error.empty()) << r.error;
        EXPECT_EQ(r.welcome.top_k, 3u);
        EXPECT_FALSE(r.report.crashed);
    }
    ASSERT_EQ(socket.slaves.size(), 2u);
    // Labels/kinds came over the wire in the Hello. PeIds follow accept
    // order and the slave threads race to connect, so compare as a set.
    std::vector<std::string> labels;
    for (const auto& s : socket.slaves) labels.push_back(s.label);
    std::sort(labels.begin(), labels.end());
    EXPECT_EQ(labels, (std::vector<std::string>{"remote0", "remote1"}));

    // One master host wires the same telemetry for both transports.
    const std::vector<std::string> names = master_metric_names(inproc.metrics);
    EXPECT_EQ(master_metric_names(socket.metrics), names);
    for (const char* name :
         {"sched.completions_accepted", "runtime.faults.heartbeats",
          "channel.master_inbox.depth", "obs.trace.dropped"}) {
        EXPECT_TRUE(std::find(names.begin(), names.end(), name) != names.end())
            << name;
    }
    EXPECT_EQ(inproc.metrics.counter("sched.completions_accepted"),
              queries.size());
    EXPECT_EQ(socket.metrics.counter("sched.completions_accepted"),
              queries.size());
}

// The PSS weight trajectories are read off the master lane, so a socket
// run, whose master takes no extra scheduler observer, yields them too.
TEST(SocketRuntime, TracedRunYieldsWeightSamplesForEveryPe) {
    const db::Database database = test_db();
    const auto queries = test_queries();
    obs::TraceRecorder recorder;
    RemoteMasterOptions mo;
    mo.runtime.top_k = 3;
    mo.runtime.notify_period_s = 0.005;
    mo.runtime.trace = &recorder;
    // About 20 ms per task, so both slaves are registered long before
    // the work runs out.
    const RemoteEngineFactory slow =
        [](const net::wire::Welcome& welcome)
        -> std::unique_ptr<engines::ComputeEngine> {
        return std::make_unique<engines::ThrottledEngine>(
            cpu_factory()(welcome), 0.005);
    };
    const RunReport report =
        run_socket(database, queries, mo, {slow, slow});

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    std::vector<std::size_t> samples_by_pe(2, 0);
    for (const obs::WeightSample& s :
         obs::weight_samples(recorder.drain())) {
        ASSERT_LT(s.pe, samples_by_pe.size());
        ++samples_by_pe[s.pe];
    }
    EXPECT_GT(samples_by_pe[0], 0u);
    EXPECT_GT(samples_by_pe[1], 0u);
}

// The PR-5 fault machinery over sockets: engine failures are retried,
// a stalled inbound queue is tolerated, and the hits stay bit-identical.
TEST(SocketRuntime, EngineFaultsAndChannelStallStayBitIdentical) {
    const db::Database database = test_db();
    const auto queries = test_queries();
    const auto reference = reference_hits(database, queries, 3);

    RuntimeOptions ro;
    ro.top_k = 3;
    ro.notify_period_s = 0.01;
    ro.liveness_timeout_s = 2.0;
    ro.heartbeat_period_s = 0.05;
    ro.max_task_retries = 10;
    ro.retry_backoff_s = 0.002;

    engines::FaultPlan plan;
    plan.kind = engines::FaultKind::Throw;
    plan.after_cells = 30'000;
    plan.seed = 99;

    RemoteMasterOptions mo;
    mo.runtime = ro;
    RemoteSlaveOptions stalled;
    stalled.inbox_stall_s = 0.002;
    std::vector<RemoteSlaveResult> slave_results;
    // The faulty slave fails every task over 30 k cells; 0.2 s alone
    // reports several failures but spends no task's retry budget.
    const RunReport report = run_socket(
        database, queries, mo,
        {cpu_factory(&plan), joining_after(0.2, cpu_factory())},
        &slave_results, {stalled, RemoteSlaveOptions{}});

    EXPECT_EQ(report.hits, reference);
    EXPECT_TRUE(report.failed_tasks.empty());
    EXPECT_GT(report.task_failures, 0u)
        << "the faulty engine should have failed at least once";
}

// A slave process crashing mid-task over a socket: the link goes quiet,
// liveness declares it dead, its tasks are requeued on the survivor,
// and the hits still match the oracle.
TEST(SocketRuntime, SlaveCrashOverSocketIsRecoveredBitIdentical) {
    const db::Database database = test_db();
    const auto queries = test_queries();
    const auto reference = reference_hits(database, queries, 3);

    RuntimeOptions ro;
    ro.top_k = 3;
    ro.notify_period_s = 0.01;
    ro.liveness_timeout_s = 0.25;
    ro.heartbeat_period_s = 0.05;
    ro.retry_backoff_s = 0.005;

    engines::FaultPlan plan;
    plan.kind = engines::FaultKind::Crash;
    plan.after_cells = 50'000;

    RemoteMasterOptions mo;
    mo.runtime = ro;
    std::vector<RemoteSlaveResult> slave_results;
    const RunReport report = run_socket(
        database, queries, mo,
        {cpu_factory(&plan),
         joining_after(2.0 * ro.liveness_timeout_s, cpu_factory())},
        &slave_results);

    EXPECT_EQ(report.hits, reference);
    EXPECT_TRUE(report.failed_tasks.empty());
    EXPECT_GE(report.slaves_presumed_dead, 1u);
    ASSERT_EQ(slave_results.size(), 2u);
    EXPECT_TRUE(slave_results[0].report.crashed);
    // A crash fault is the engine's, not the link's.
    EXPECT_TRUE(slave_results[0].error.empty()) << slave_results[0].error;
    EXPECT_FALSE(slave_results[1].report.crashed);
}

// A master that drops the link before its MsgShutdown (here: it
// welcomes the slave and closes) leaves the slave with an error, so a
// swhybrid_slave process exits non-zero.
TEST(SocketRuntime, SlaveReportsALinkClosedBeforeShutdown) {
    const db::Database database = test_db();
    const auto queries = test_queries(2);
    std::uint16_t port = 0;
    net::Socket listener = net::tcp_listen(port);

    std::thread master([&listener] {
        auto sock = net::tcp_accept(listener, 10.0);
        if (!sock.has_value()) return;
        net::StreamTransport link(std::move(*sock));
        if (link.recv_frame().has_value()) {  // the Hello
            net::send_msg(link, net::wire::Welcome{});
        }
    });  // `link` closes as the thread ends
    RemoteSlaveOptions so;
    so.port = port;
    const RemoteSlaveResult result =
        run_remote_slave(database, queries, so, cpu_factory());
    master.join();

    EXPECT_TRUE(result.connected);
    EXPECT_FALSE(result.error.empty());
    EXPECT_FALSE(result.report.crashed);
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

// The run ends at its last accepted result over sockets too: a slow
// slave still computing a replica that already lost gets Shutdown
// instead of holding the master loop open until it asks for work.
TEST(SocketRuntime, RunEndsAtLastAcceptedResult) {
    const db::Database database = test_db(30, 49);
    const auto queries = test_queries(4);
    const auto reference = reference_hits(database, queries, 3);

    obs::TraceRecorder trace;
    RuntimeOptions ro;
    ro.top_k = 3;
    ro.notify_period_s = 0.01;
    ro.trace = &trace;

    std::size_t min_len = queries[0].size();
    for (const auto& q : queries) min_len = std::min(min_len, q.size());
    const double slow_gcups = static_cast<double>(min_len) *
                              static_cast<double>(database.residues()) /
                              1.0 / 1e9;
    const RemoteEngineFactory fast = cpu_factory();
    const RemoteEngineFactory slow =
        [&](const net::wire::Welcome& welcome)
        -> std::unique_ptr<engines::ComputeEngine> {
        return std::make_unique<engines::ThrottledEngine>(fast(welcome),
                                                          slow_gcups);
    };

    RemoteMasterOptions mo;
    mo.runtime = ro;
    std::vector<RemoteSlaveResult> slave_results;
    const RunReport report =
        run_socket(database, queries, mo, {slow, joining_after(0.05, fast)},
                   &slave_results);

    EXPECT_EQ(report.hits, reference);
    ASSERT_EQ(slave_results.size(), 2u);
    EXPECT_GE(slave_results[0].report.tasks_cancelled, 1u);
    // The losing replica's Shutdown arrives mid-task, right before the
    // master closes the link: still a clean end, not a link error.
    for (const RemoteSlaveResult& r : slave_results) {
        EXPECT_TRUE(r.error.empty()) << r.error;
    }
    EXPECT_LT(report.wall_seconds - last_accept_s(trace.drain()), 0.1);
}

// A crashed slave whose task a replica already finished no longer holds
// the socket run open for the liveness timeout.
TEST(SocketRuntime, CrashedSlaveWhoseTaskWasReplicatedDoesNotHoldTheRun) {
    const db::Database database = test_db();
    const auto queries = test_queries();
    const auto reference = reference_hits(database, queries, 3);

    RuntimeOptions ro;
    ro.top_k = 3;
    ro.notify_period_s = 0.01;
    ro.liveness_timeout_s = 2.0;
    ro.heartbeat_period_s = 0.05;

    engines::FaultPlan plan;
    plan.kind = engines::FaultKind::Crash;
    plan.after_cells = 1;

    RemoteMasterOptions mo;
    mo.runtime = ro;
    std::vector<RemoteSlaveResult> slave_results;
    const RunReport report = run_socket(
        database, queries, mo,
        {cpu_factory(&plan), joining_after(0.05, cpu_factory())},
        &slave_results);

    EXPECT_EQ(report.hits, reference);
    EXPECT_TRUE(report.failed_tasks.empty());
    ASSERT_EQ(slave_results.size(), 2u);
    EXPECT_TRUE(slave_results[0].report.crashed);
    EXPECT_LT(report.wall_seconds, ro.liveness_timeout_s);
}

// Lossy slave->master channel faults apply to decoded socket traffic
// exactly as in-process: dropped messages are recovered by liveness +
// replication and the result stays bit-identical.
TEST(SocketRuntime, LossyMasterInboxStaysBitIdentical) {
    const db::Database database = test_db();
    const auto queries = test_queries(6);
    const auto reference = reference_hits(database, queries, 3);

    RuntimeOptions ro;
    ro.top_k = 3;
    ro.notify_period_s = 0.01;
    ro.liveness_timeout_s = 0.3;
    ro.heartbeat_period_s = 0.05;
    ro.retry_backoff_s = 0.005;
    ro.master_link_faults.drop_prob = 0.10;
    ro.master_link_faults.seed = 4242;

    RemoteMasterOptions mo;
    mo.runtime = ro;
    const RunReport report = run_socket(database, queries, mo,
                                        {cpu_factory(), cpu_factory()});
    EXPECT_EQ(report.hits, reference);
    EXPECT_TRUE(report.failed_tasks.empty());
}

}  // namespace
}  // namespace swh::runtime
