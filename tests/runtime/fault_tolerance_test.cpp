// Fault-injection coverage for the fault-tolerant master loop (ISSUE 5):
// slave crashes, engine exceptions with retry budgets, permanent stalls,
// liveness false positives, lossy channels. Every test here hangs forever
// (or std::terminates) on the pre-fix runtime — the ctest TIMEOUT
// property is what turns the old deadlock into a failure.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "align/sw_scalar.hpp"
#include "db/database.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/faulty_engine.hpp"
#include "engines/throttled_engine.hpp"
#include "obs/trace.hpp"
#include "runtime/hybrid_runtime.hpp"

namespace swh::runtime {
namespace {

const align::ScoreMatrix& blosum() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

engines::EngineConfig engine_config(std::uint64_t progress_grain = 100'000) {
    engines::EngineConfig c;
    c.matrix = &blosum();
    c.gap = {10, 2};
    c.top_k = 3;
    c.isa = simd::best_supported();
    c.progress_grain = progress_grain;
    return c;
}

db::Database test_db(std::size_t n = 30, std::uint64_t seed = 31) {
    db::DatabaseSpec spec;
    spec.name = "ft";
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

std::unique_ptr<engines::ComputeEngine> faulty(engines::FaultPlan plan) {
    return std::make_unique<engines::FaultyEngine>(cpu_engine(), plan);
}

/// Join delay for the healthy slaves of a fault test: twice the
/// liveness timeout. The run ends at its last accepted result, so
/// healthy slaves present from the start could replicate a faulty
/// slave's task and finish before the fault is ever detected.
double after_detection(double timeout_s) { return 2.0 * timeout_s; }

/// Options with liveness on: the fault-tolerant mode under test.
RuntimeOptions fault_tolerant_options(double timeout_s = 0.25) {
    RuntimeOptions o;
    o.notify_period_s = 0.01;
    o.top_k = 3;
    o.sched.workload_adjust = true;
    o.liveness_timeout_s = timeout_s;
    o.heartbeat_period_s = timeout_s / 5.0;
    o.retry_backoff_s = 0.005;
    return o;
}

// Reference: serially computed top-k hits per query — the fault-free
// baseline every faulted run must still match bit-identically.
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

std::size_t total_accepted(const RunReport& report) {
    std::size_t total = 0;
    for (const SlaveReport& s : report.slaves) total += s.results_accepted;
    return total;
}

TEST(FaultTolerance, SlaveCrashMidTaskIsRecoveredBitIdentical) {
    // A slave dying mid-task without deregistering deadlocked the old
    // blocking-recv master forever. With liveness on, the master must
    // declare it dead, requeue its task, and finish with hits identical
    // to the fault-free reference.
    const db::Database database = test_db();
    const auto queries = test_queries();
    const RuntimeOptions options = fault_tolerant_options();
    HybridRuntime rt(database, queries, options);

    engines::FaultPlan crash;
    crash.kind = engines::FaultKind::Crash;
    crash.after_cells = 1;  // crash mid-task, after real work happened
    const double join = after_detection(options.liveness_timeout_s);
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"crash0", faulty(crash)});
    slaves.push_back(SlaveSpec{"sse0", cpu_engine(), join});
    slaves.push_back(SlaveSpec{"sse1", cpu_engine(), join});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_TRUE(report.failed_tasks.empty());
    EXPECT_EQ(report.slaves_presumed_dead, 1u);
    EXPECT_TRUE(report.slaves[0].crashed);
    EXPECT_TRUE(report.slaves[0].presumed_dead);
    EXPECT_EQ(total_accepted(report), queries.size());
}

TEST(FaultTolerance, CrashedSlaveWhoseTaskWasReplicatedDoesNotHoldTheRun) {
    // The healthy slave joins after the crash and replicates the dead
    // slave's task. Once that replica wins every task is settled, so the
    // run ends there instead of waiting out the liveness timeout.
    const db::Database database = test_db();
    const auto queries = test_queries();
    const RuntimeOptions options = fault_tolerant_options(2.0);
    HybridRuntime rt(database, queries, options);

    engines::FaultPlan crash;
    crash.kind = engines::FaultKind::Crash;
    crash.after_cells = 1;
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"crash0", faulty(crash)});
    slaves.push_back(SlaveSpec{"sse0", cpu_engine(), 0.05});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_TRUE(report.failed_tasks.empty());
    EXPECT_TRUE(report.slaves[0].crashed);
    EXPECT_LT(report.wall_seconds, options.liveness_timeout_s);
}

TEST(FaultTolerance, EngineThrowIsRetriedToCompletion) {
    // Engine exceptions used to unwind out of the slave thread and
    // std::terminate the process. Now they become MsgTaskFailed and the
    // master retries the task after a backoff. Liveness stays off here:
    // containment must work on its own.
    const db::Database database = test_db();
    const auto queries = test_queries();
    RuntimeOptions options;
    options.notify_period_s = 0.01;
    options.top_k = 3;
    options.retry_backoff_s = 0.005;
    HybridRuntime rt(database, queries, options);

    engines::FaultPlan flaky;
    flaky.kind = engines::FaultKind::Throw;
    flaky.max_faults = 2;
    // flaky0 throws on its first two tasks (after_cells 0) before sse0
    // joins, which could otherwise finish the run first.
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"flaky0", faulty(flaky)});
    slaves.push_back(SlaveSpec{"sse0", cpu_engine(), 0.05});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_TRUE(report.failed_tasks.empty());
    EXPECT_EQ(report.task_failures, 2u);
    EXPECT_EQ(report.slaves[0].engine_failures, 2u);
    EXPECT_FALSE(report.slaves[0].crashed);
    EXPECT_EQ(total_accepted(report), queries.size());
}

TEST(FaultTolerance, RetryExhaustionSurfacesFailedTasksWithoutAborting) {
    // Every execution of every task throws. The run must still terminate,
    // spending exactly max_task_retries + 1 attempts per task, and
    // surface each one in failed_tasks instead of aborting.
    const db::Database database = test_db();
    const auto queries = test_queries(4);
    RuntimeOptions options;
    options.notify_period_s = 0.01;
    options.top_k = 3;
    options.max_task_retries = 1;
    options.retry_backoff_s = 0.001;
    HybridRuntime rt(database, queries, options);

    engines::FaultPlan hopeless;
    hopeless.kind = engines::FaultKind::Throw;
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"doomed0", faulty(hopeless)});
    const RunReport report =
        rt.run(std::move(slaves), core::make_self_scheduling());

    ASSERT_EQ(report.failed_tasks.size(), queries.size());
    for (const RunReport::FailedTask& f : report.failed_tasks) {
        EXPECT_EQ(f.failures, 2u);  // first attempt + one retry
        EXPECT_NE(f.last_error.find("injected throw fault"),
                  std::string::npos);
    }
    EXPECT_EQ(report.task_failures, 2 * queries.size());
    EXPECT_EQ(report.slaves[0].engine_failures, 2 * queries.size());
    for (const auto& hits : report.hits) EXPECT_TRUE(hits.empty());
    EXPECT_EQ(total_accepted(report), 0u);
}

TEST(FaultTolerance, StalledSlaveIsDeclaredDeadAndWorkRescued) {
    // A permanently wedged engine never sends anything again. The
    // liveness timeout must reclaim its task; closing its inbox is the
    // cooperative kill that unwedges the stall so the thread can join.
    const db::Database database = test_db();
    const auto queries = test_queries();
    HybridRuntime rt(database, queries, fault_tolerant_options(0.2));

    engines::FaultPlan stall;
    stall.kind = engines::FaultKind::Stall;
    stall.max_faults = 1;
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"stall0", faulty(stall)});
    slaves.push_back(SlaveSpec{"sse0", cpu_engine(), after_detection(0.2)});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_TRUE(report.failed_tasks.empty());
    EXPECT_EQ(report.slaves_presumed_dead, 1u);
    EXPECT_TRUE(report.slaves[0].presumed_dead);
    EXPECT_EQ(total_accepted(report), queries.size());
}

/// Takes a long nap before computing, forwarding neither progress nor
/// cancellation polls: from the master's side it is indistinguishable
/// from a dead slave, but it eventually delivers a (late) result.
class SleepyEngine final : public engines::ComputeEngine {
public:
    SleepyEngine(std::unique_ptr<engines::ComputeEngine> inner,
                 double sleep_s)
        : inner_(std::move(inner)), sleep_s_(sleep_s) {}

    std::string_view name() const override { return "sleepy"; }
    core::PeKind kind() const override { return inner_->kind(); }

    core::TaskResult execute(const align::Sequence& query,
                             std::uint32_t query_index, core::TaskId task,
                             const db::Database& database,
                             engines::ExecutionObserver*) override {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sleep_s_));
        return inner_->execute(query, query_index, task, database, nullptr);
    }

private:
    std::unique_ptr<engines::ComputeEngine> inner_;
    double sleep_s_;
};

TEST(FaultTolerance, LateCompletionFromPresumedDeadSlaveIsDiscarded) {
    // Liveness false positive: the slave was slow, not dead. Its task is
    // requeued and recomputed elsewhere; when its own completion finally
    // arrives it must be discarded — double-merging would corrupt the
    // top-k lists.
    const db::Database database = test_db();
    const auto queries = test_queries();
    RuntimeOptions options = fault_tolerant_options(0.15);
    options.heartbeat_period_s = 0.03;
    HybridRuntime rt(database, queries, options);

    // Size the steady worker so it is still busy (and the master loop
    // still alive) when the sleepy slave's late TaskDone lands at ~0.5s.
    std::uint64_t db_residues = 0;
    for (std::size_t i = 0; i < database.size(); ++i) {
        db_residues += database[i].residues.size();
    }
    std::uint64_t query_residues = 0;
    for (const auto& q : queries) query_residues += q.residues.size();
    const double total_cells =
        static_cast<double>(db_residues) * static_cast<double>(query_residues);
    const double worker_gcups = total_cells / 1.2 / 1e9;

    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{
        "sleepy0", std::make_unique<SleepyEngine>(cpu_engine(), 0.5)});
    slaves.push_back(SlaveSpec{
        "worker0",
        std::make_unique<engines::ThrottledEngine>(
            std::make_unique<engines::CpuEngine>(engine_config(2'000)),
            worker_gcups, 0.0, "worker")});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_TRUE(report.failed_tasks.empty());
    EXPECT_EQ(report.slaves_presumed_dead, 1u);
    EXPECT_TRUE(report.slaves[0].presumed_dead);
    EXPECT_EQ(report.late_completions_discarded, 1u);
    EXPECT_EQ(report.slaves[0].results_discarded, 1u);
    EXPECT_EQ(report.slaves[0].results_accepted, 0u);
    // The worker alone produced every accepted result.
    EXPECT_EQ(report.slaves[1].results_accepted, queries.size());
}

TEST(FaultTolerance, CompletionCrossingTheEndOfRunShutdownIsDiscarded) {
    // sleepy0 never polls cancellation, so the Shutdown it gets once
    // worker0's replica settles the last task cannot stop it: its
    // TaskDone arrives afterwards, while the not-yet-joined late0 keeps
    // the master loop open. It is a lost replica race, not a late
    // completion from a presumed-dead slave.
    const db::Database database = test_db();
    const auto queries = test_queries(4);
    HybridRuntime rt(database, queries, fault_tolerant_options(1.0));

    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{
        "sleepy0", std::make_unique<SleepyEngine>(cpu_engine(), 0.2)});
    slaves.push_back(SlaveSpec{"worker0", cpu_engine(), 0.05});
    slaves.push_back(SlaveSpec{"late0", cpu_engine(), 0.5});
    const RunReport report =
        rt.run(std::move(slaves), core::make_self_scheduling());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_EQ(report.slaves[0].results_discarded, 1u);
    EXPECT_EQ(report.slaves[0].results_accepted, 0u);
    EXPECT_EQ(report.late_completions_discarded, 0u);
    EXPECT_EQ(report.slaves_presumed_dead, 0u);
    EXPECT_EQ(report.slaves[1].results_accepted, queries.size());
    EXPECT_EQ(report.slaves[2].results_accepted, 0u);
}

TEST(FaultTolerance, HalfFaultySlavesMatchFaultFreeBaseline) {
    // The acceptance scenario: faults on half the slaves — one crash
    // without deregistering, one engine-throw, one permanent stall —
    // must complete in bounded wall time, report the faults, and produce
    // top-k hits identical to a fault-free run.
    const db::Database database = test_db(40, 35);
    const auto queries = test_queries(10);

    RuntimeOptions healthy_options;
    healthy_options.notify_period_s = 0.01;
    healthy_options.top_k = 3;
    HybridRuntime baseline_rt(database, queries, healthy_options);
    std::vector<SlaveSpec> baseline_slaves;
    for (int i = 0; i < 3; ++i) {
        baseline_slaves.push_back(
            SlaveSpec{"sse" + std::to_string(i), cpu_engine()});
    }
    const RunReport baseline =
        baseline_rt.run(std::move(baseline_slaves), core::make_pss());

    const RuntimeOptions options = fault_tolerant_options();
    HybridRuntime rt(database, queries, options);
    engines::FaultPlan crash;
    crash.kind = engines::FaultKind::Crash;
    crash.after_cells = 1;
    engines::FaultPlan flaky;
    flaky.kind = engines::FaultKind::Throw;
    flaky.max_faults = 2;
    engines::FaultPlan stall;
    stall.kind = engines::FaultKind::Stall;
    stall.max_faults = 1;
    // crash0 and stall0 start alone. flaky0 joins once both are declared
    // dead, and throws on its first two tasks (after_cells 0) before the
    // healthy slaves join a further 0.1 s later.
    const double join = after_detection(options.liveness_timeout_s);
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"crash0", faulty(crash)});
    slaves.push_back(SlaveSpec{"flaky0", faulty(flaky), join});
    slaves.push_back(SlaveSpec{"stall0", faulty(stall)});
    for (int i = 0; i < 3; ++i) {
        slaves.push_back(
            SlaveSpec{"sse" + std::to_string(i), cpu_engine(), join + 0.1});
    }
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, baseline.hits);
    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_TRUE(report.failed_tasks.empty());
    EXPECT_EQ(report.slaves_presumed_dead, 2u);  // crash + stall
    EXPECT_TRUE(report.slaves[0].presumed_dead);
    EXPECT_TRUE(report.slaves[0].crashed);
    EXPECT_TRUE(report.slaves[2].presumed_dead);
    EXPECT_GE(report.task_failures, 1u);
    EXPECT_EQ(total_accepted(report), queries.size());
}

TEST(FaultTolerance, DroppedMessagesAreHealedByLivenessAndReissue) {
    // A lossy slave->master link loses Registers, WorkRequests, TaskDones
    // and heartbeats at random. Re-registration, heartbeat work-polling
    // and lost-completion re-issue must together still drive the run to
    // the exact reference hits.
    const db::Database database = test_db();
    const auto queries = test_queries();
    RuntimeOptions options = fault_tolerant_options(0.2);
    options.heartbeat_period_s = 0.04;
    options.master_link_faults.drop_prob = 0.1;
    options.master_link_faults.seed = 0xD20BULL;
    HybridRuntime rt(database, queries, options);

    std::vector<SlaveSpec> slaves;
    for (int i = 0; i < 3; ++i) {
        slaves.push_back(SlaveSpec{"sse" + std::to_string(i), cpu_engine()});
    }
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_TRUE(report.failed_tasks.empty());
}

TEST(FaultTolerance, LinkStallsDelayButNeverKillHealthySlaves) {
    // Symmetric delivery stalls well below the liveness timeout must not
    // produce false positives.
    const db::Database database = test_db();
    const auto queries = test_queries();
    RuntimeOptions options = fault_tolerant_options(0.3);
    options.master_link_faults.stall_s = 0.02;
    options.slave_link_stall_s = 0.02;
    HybridRuntime rt(database, queries, options);

    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"sse0", cpu_engine()});
    slaves.push_back(SlaveSpec{"sse1", cpu_engine()});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_EQ(report.slaves_presumed_dead, 0u);
    EXPECT_TRUE(report.failed_tasks.empty());
}

TEST(FaultTolerance, LeaverWithCancelledTasksKeepsAccountingConsistent) {
    // A slow slave leaves after its first completion while holding a
    // chunked batch; replicas race it and the end-of-run Shutdown
    // cancels the losers. Completion accounting must stay exact through
    // the leave (closed-inbox exits must not silently skip the
    // finished_slaves bookkeeping).
    const db::Database database = test_db();
    const auto queries = test_queries();
    RuntimeOptions options;
    options.notify_period_s = 0.01;
    options.top_k = 3;
    options.sched.workload_adjust = true;
    HybridRuntime rt(database, queries, options);

    // The leaver is the *fastest* slave so it deterministically finishes
    // its first task (and leaves) while the throttled peers are still on
    // theirs; the chunk it abandons is requeued and later causes replica
    // races + cancellations among the remaining slaves.
    std::uint64_t db_residues = 0;
    for (std::size_t i = 0; i < database.size(); ++i) {
        db_residues += database[i].residues.size();
    }
    const double slow_gcups =
        60.0 * static_cast<double>(db_residues) / 0.02 / 1e9;

    std::vector<SlaveSpec> slaves;
    slaves.push_back(
        SlaveSpec{"leaver0", cpu_engine(), 0.0, /*leave_after_tasks=*/1});
    for (int i = 0; i < 2; ++i) {
        slaves.push_back(SlaveSpec{
            "slow" + std::to_string(i),
            std::make_unique<engines::ThrottledEngine>(
                std::make_unique<engines::CpuEngine>(engine_config(2'000)),
                slow_gcups, 0.0, "slow")});
    }
    const RunReport report = rt.run(
        std::move(slaves), core::make_chunked_self_scheduling(3));

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_TRUE(report.slaves[0].left_early);
    EXPECT_EQ(total_accepted(report), queries.size());
    std::size_t total_discarded = 0;
    for (const SlaveReport& s : report.slaves) {
        total_discarded += s.results_discarded;
    }
    EXPECT_EQ(total_discarded, report.completions_discarded +
                                   report.late_completions_discarded);
    EXPECT_TRUE(report.failed_tasks.empty());
}

TEST(FaultTolerance, FaultMetricsAndTraceEventsAreEmitted) {
    // runtime.faults.* metrics and the SlavePresumedDead trace event
    // must record what the run survived.
    const db::Database database = test_db();
    const auto queries = test_queries(4);
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    RuntimeOptions options = fault_tolerant_options(0.2);
    options.trace = &trace;
    options.metrics = &metrics;
    // No replication: the failed task must wait out its retry backoff
    // (a replica rescuing it first would make the retry stale and the
    // TaskFailed scheduler event legitimately unobservable).
    options.sched.workload_adjust = false;
    HybridRuntime rt(database, queries, options);

    engines::FaultPlan crash;
    crash.kind = engines::FaultKind::Crash;
    crash.after_cells = 1;
    engines::FaultPlan flaky;
    flaky.kind = engines::FaultKind::Throw;
    flaky.max_faults = 1;
    std::vector<SlaveSpec> slaves;
    slaves.push_back(SlaveSpec{"crash0", faulty(crash)});
    slaves.push_back(SlaveSpec{"flaky0", faulty(flaky)});
    slaves.push_back(SlaveSpec{"sse0", cpu_engine()});
    const RunReport report = rt.run(std::move(slaves), core::make_pss());

    EXPECT_EQ(report.hits, reference_hits(database, queries, 3));
    EXPECT_EQ(report.metrics.counter("runtime.faults.slaves_presumed_dead"),
              1u);
    EXPECT_EQ(report.metrics.counter("runtime.faults.engine_failures"), 1u);
    EXPECT_GE(report.metrics.counter("runtime.faults.retries"), 1u);

    bool saw_dead_event = false;
    bool saw_failed_event = false;
    const obs::Trace t = trace.drain();
    for (const auto& lane : t.lanes) {
        for (const auto& ev : lane.events) {
            if (ev.kind == obs::EventKind::SlavePresumedDead) {
                saw_dead_event = true;
            }
            if (ev.kind == obs::EventKind::TaskFailed) saw_failed_event = true;
        }
    }
    EXPECT_TRUE(saw_dead_event);
    EXPECT_TRUE(saw_failed_event);
}

}  // namespace
}  // namespace swh::runtime
