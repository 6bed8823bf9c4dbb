// MasterProtocol in virtual time: scripted messages and `now` values
// go in, replies come out. No threads, no sleeps, no clock.

#include "runtime/master_protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/tracers.hpp"

namespace swh::runtime {
namespace {

using core::PeId;
using core::TaskId;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<core::Task> equal_tasks(std::size_t n) {
    std::vector<core::Task> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back(core::Task{static_cast<TaskId>(i),
                                   static_cast<std::uint32_t>(i), 1'000});
    }
    return tasks;
}

/// One self-scheduled run of `tasks` equal tasks on `slaves` PEs.
struct Harness {
    Harness(std::size_t tasks, std::size_t slaves,
            const RuntimeOptions& options = {})
        : sched(equal_tasks(tasks), core::make_self_scheduling(),
                options.sched),
          merger(tasks, 1),
          protocol(sched, merger, slaves, options) {}

    /// Replies to one message, as "pe:kind" strings in send order.
    std::vector<std::string> step(net::MasterMsg msg, double now) {
        std::vector<MasterAction> out;
        protocol.on_message(std::move(msg), now, out);
        return describe(out);
    }

    std::vector<std::string> tick(double now) {
        std::vector<MasterAction> out;
        protocol.on_timer(now, out);
        return describe(out);
    }

    std::vector<std::string> join(PeId pe, double now) {
        step(net::MsgRegister{pe, core::PeKind::SseCore}, now);
        return step(net::MsgWorkRequest{pe}, now);
    }

    std::vector<std::string> done(PeId pe, TaskId task, double now,
                                  std::vector<core::Hit> hits = {}) {
        return step(net::MsgTaskDone{pe, task,
                                     core::TaskResult{task, task, 1'000,
                                                      std::move(hits)}},
                    now);
    }

    static std::vector<std::string> describe(
        const std::vector<MasterAction>& out) {
        std::vector<std::string> kinds;
        for (const MasterAction& a : out) {
            std::string kind = "abandon";
            if (a.msg.has_value()) {
                if (const auto* assign = std::get_if<net::MsgAssign>(&*a.msg)) {
                    kind = "assign";
                    for (const core::Task& t : assign->tasks) {
                        kind += " t" + std::to_string(t.id);
                    }
                } else if (std::holds_alternative<net::MsgNoWorkYet>(
                               *a.msg)) {
                    kind = "no_work_yet";
                } else if (std::holds_alternative<net::MsgShutdown>(*a.msg)) {
                    kind = "shutdown";
                }
            }
            kinds.push_back(std::to_string(a.pe) + ":" + kind);
        }
        return kinds;
    }

    core::SchedulerCore sched;
    core::ResultMerger merger;
    MasterProtocol protocol;
};

using Replies = std::vector<std::string>;

RuntimeOptions with_liveness(double timeout_s) {
    RuntimeOptions options;
    options.liveness_timeout_s = timeout_s;
    return options;
}

TEST(MasterProtocol, LivenessDeclaresDeathExactlyAtTheDeadline) {
    Harness h(2, 2, with_liveness(0.5));
    EXPECT_EQ(h.join(0, 0.0), (Replies{"0:assign t0"}));
    EXPECT_EQ(h.join(1, 0.0), (Replies{"1:assign t1"}));
    // pe 1 reports progress at 0.25; pe 0 stays silent from 0 on.
    EXPECT_TRUE(h.step(net::MsgProgress{1, 1e6}, 0.25).empty());
    EXPECT_EQ(h.protocol.next_deadline(), 0.0 + 0.5);

    EXPECT_TRUE(h.tick(std::nextafter(0.5, 0.0)).empty());
    EXPECT_EQ(h.protocol.report().slaves_presumed_dead, 0u);

    EXPECT_EQ(h.tick(0.5), (Replies{"0:abandon"}));
    EXPECT_EQ(h.protocol.report().slaves_presumed_dead, 1u);
    EXPECT_TRUE(h.protocol.report().slaves[0].presumed_dead);
    EXPECT_FALSE(h.protocol.report().slaves[1].presumed_dead);
    // t0 went back to Ready; pe 1's deadline is next.
    EXPECT_EQ(h.sched.task_state(0), core::TaskState::Ready);
    EXPECT_EQ(h.protocol.next_deadline(), 0.25 + 0.5);
    EXPECT_TRUE(h.tick(std::nextafter(0.75, 0.0)).empty());
    EXPECT_FALSE(h.protocol.report().slaves[1].presumed_dead);
}

TEST(MasterProtocol, MasterLaneIsStampedWithTheSchedulersClock) {
    // Every event SchedTracer and the protocol put on the master lane
    // carries the `now` of the step that caused it, registration and
    // presumed death included, never the recorder's wall clock.
    obs::TraceRecorder recorder;
    obs::TraceLane& lane = recorder.lane("master");
    obs::SchedTracer tracer(&lane, nullptr);
    core::SchedulerCore sched(equal_tasks(2), core::make_self_scheduling(),
                              {});
    sched.set_observer(&tracer);
    core::ResultMerger merger(2, 1);
    MasterProtocol protocol(sched, merger, 2, with_liveness(0.5), &lane);
    std::vector<MasterAction> out;
    protocol.on_message(net::MsgRegister{0, core::PeKind::Gpu}, 1.25, out);
    protocol.on_message(net::MsgRegister{1, core::PeKind::SseCore}, 1.5, out);
    protocol.on_message(net::MsgWorkRequest{0}, 2.0, out);
    protocol.on_message(net::MsgProgress{0, 1e6}, 2.25, out);
    protocol.on_message(net::MsgProgress{0, 3e6}, 2.5, out);
    protocol.on_message(
        net::MsgTaskDone{0, 0, core::TaskResult{0, 0, 1'000, {}}}, 2.75, out);
    protocol.on_timer(3.0, out);  // pe 1, silent since 1.5, is dead

    using obs::EventKind;
    const std::vector<std::pair<EventKind, double>> expected = {
        {EventKind::SlaveRegistered, 1.25},
        {EventKind::SlaveRegistered, 1.5},
        {EventKind::PackageSized, 2.0},
        {EventKind::TaskAssigned, 2.0},
        {EventKind::Progress, 2.25},
        {EventKind::Progress, 2.5},
        {EventKind::CompletedAccepted, 2.75},
        {EventKind::SlaveDeregistered, 3.0},
        {EventKind::SlavePresumedDead, 3.0},
    };
    const obs::Trace trace = recorder.drain();
    ASSERT_EQ(trace.lanes.size(), 1u);
    std::vector<std::pair<EventKind, double>> got;
    for (const obs::TraceEvent& e : trace.lanes[0].events) {
        got.emplace_back(e.kind, e.t);
    }
    EXPECT_EQ(got, expected);
    // Each Progress carries the estimate held before its sample: none
    // before the first, the first sample's rate before the second.
    EXPECT_EQ(trace.lanes[0].events[4].aux, 0.0);
    EXPECT_EQ(trace.lanes[0].events[5].value, 3e6);
    EXPECT_EQ(trace.lanes[0].events[5].aux, 1e6);
}

TEST(MasterProtocol, ParkedRetriesFallDueWithDoublingBackoffUpToTheCap) {
    for (const double cap : {1.0, 0.03}) {
        SCOPED_TRACE(cap);
        RuntimeOptions options;
        options.retry_backoff_s = 0.01;
        options.retry_backoff_max_s = cap;
        options.max_task_retries = 3;
        Harness h(1, 1, options);
        EXPECT_EQ(h.join(0, 0.0), (Replies{"0:assign t0"}));
        const std::vector<double> backoffs =
            cap == 1.0 ? std::vector<double>{0.01, 0.02, 0.04}
                       : std::vector<double>{0.01, 0.02, 0.03};
        double now = 0.0;
        for (const double backoff : backoffs) {
            // The engine throws; the slave reports it and asks again.
            EXPECT_TRUE(h.step(net::MsgTaskFailed{0, 0, "boom"}, now).empty());
            EXPECT_EQ(h.step(net::MsgWorkRequest{0}, now),
                      (Replies{"0:no_work_yet"}));
            const double due = now + backoff;
            EXPECT_EQ(h.protocol.next_deadline(), due);
            EXPECT_TRUE(h.tick(std::nextafter(due, 0.0)).empty());
            EXPECT_EQ(h.tick(due), (Replies{"0:assign t0"}));
            EXPECT_EQ(h.protocol.next_deadline(), kInf);
            now = due;
        }
        // The fourth failure spends the budget: the task settles as
        // failed and the run ends.
        EXPECT_EQ(h.step(net::MsgTaskFailed{0, 0, "boom"}, now),
                  (Replies{"0:shutdown"}));
        EXPECT_TRUE(h.protocol.finished());
        const RunReport report = h.protocol.take_report();
        ASSERT_EQ(report.failed_tasks.size(), 1u);
        EXPECT_EQ(report.failed_tasks[0].failures, 4u);
        EXPECT_EQ(report.failed_tasks[0].last_error, "boom");
    }
}

TEST(MasterProtocol, CompletionFromADeadSlaveIsALateDiscard) {
    Harness h(2, 2, with_liveness(0.5));
    h.join(0, 0.0);
    h.join(1, 0.0);
    h.step(net::MsgProgress{1, 1e6}, 0.4);
    EXPECT_EQ(h.tick(0.5), (Replies{"0:abandon"}));

    // pe 0 was slow, not dead: its result arrives after the verdict.
    EXPECT_TRUE(h.done(0, 0, 0.6, {{3, 42}}).empty());
    const RunReport& report = h.protocol.report();
    EXPECT_EQ(report.late_completions_discarded, 1u);
    EXPECT_EQ(report.slaves[0].results_discarded, 1u);
    EXPECT_EQ(report.slaves[0].results_accepted, 0u);
    EXPECT_EQ(report.accepted_cells, 0u);
    EXPECT_EQ(h.merger.results_merged(), 0u);
    EXPECT_TRUE(h.merger.hits_for(0).empty());
    EXPECT_EQ(h.sched.task_state(0), core::TaskState::Ready);
}

TEST(MasterProtocol, EveryActiveSlaveIsShutDownInTheStepAllDoneTurnsTrue) {
    // pe 3 never registers before the end.
    RuntimeOptions options;
    options.sched.workload_adjust = false;
    Harness h(2, 4, options);
    EXPECT_EQ(h.join(0, 0.0), (Replies{"0:assign t0"}));
    EXPECT_EQ(h.join(1, 0.0), (Replies{"1:assign t1"}));
    EXPECT_EQ(h.join(2, 0.0), (Replies{"2:no_work_yet"}));

    // Starved slaves are served before the finisher's own request.
    EXPECT_EQ(h.done(0, 0, 1.0), (Replies{"2:no_work_yet"}));
    EXPECT_EQ(h.step(net::MsgWorkRequest{0}, 1.0), (Replies{"0:no_work_yet"}));

    // pe 1 is busy and has not asked again: it is shut down too.
    Replies last = h.done(1, 1, 2.0);
    std::sort(last.begin(), last.end());
    EXPECT_EQ(last, (Replies{"0:shutdown", "1:shutdown", "2:shutdown"}));
    EXPECT_FALSE(h.protocol.finished());

    EXPECT_EQ(h.join(3, 3.0), (Replies{"3:shutdown"}));
    EXPECT_TRUE(h.protocol.finished());
    EXPECT_EQ(h.protocol.report().accepted_cells, 2'000u);
}

/// Options that attach `metrics` to the protocol under test.
RuntimeOptions with_metrics(obs::MetricsRegistry& metrics) {
    RuntimeOptions options;
    options.metrics = &metrics;
    return options;
}

TEST(MasterProtocol, ReplicaLoserIsDiscardedWhileOtherTasksRemain) {
    obs::MetricsRegistry metrics;
    Harness h(3, 3, with_metrics(metrics));
    EXPECT_EQ(h.join(0, 0.0), (Replies{"0:assign t0"}));
    EXPECT_EQ(h.join(1, 0.0), (Replies{"1:assign t1"}));
    EXPECT_EQ(h.join(2, 0.0), (Replies{"2:assign t2"}));
    EXPECT_TRUE(h.done(2, 2, 1.0).empty());
    EXPECT_EQ(h.step(net::MsgWorkRequest{2}, 1.0), (Replies{"2:assign t0"}));

    // The replica wins t0; the original's result arrives while t1 is
    // still running, so the scheduler rejects it and the run goes on.
    EXPECT_TRUE(h.done(2, 0, 2.0, {{3, 42}}).empty());
    EXPECT_TRUE(h.done(0, 0, 2.5, {{3, 42}}).empty());
    EXPECT_EQ(h.sched.completions_discarded(), 1u);
    EXPECT_EQ(h.protocol.report().slaves[0].results_discarded, 1u);
    EXPECT_EQ(h.protocol.report().slaves[0].results_accepted, 0u);
    EXPECT_EQ(h.merger.results_merged(), 2u);

    Replies last = h.done(1, 1, 3.0);
    std::sort(last.begin(), last.end());
    EXPECT_EQ(last, (Replies{"0:shutdown", "1:shutdown", "2:shutdown"}));
    const RunReport report = h.protocol.take_report();
    EXPECT_EQ(report.completions_discarded, 1u);
    EXPECT_EQ(metrics.snapshot().counter("sched.completions_discarded"),
              report.completions_discarded);
    EXPECT_EQ(report.replicas_issued, 1u);
    EXPECT_EQ(report.accepted_cells, 3'000u);
}

TEST(MasterProtocol, LoserFinishingAfterItsShutdownIsARacedDiscard) {
    // pe 2 never registers before the end, so the run stays open after
    // every task has settled.
    obs::MetricsRegistry metrics;
    Harness h(2, 3, with_metrics(metrics));
    EXPECT_EQ(h.join(0, 0.0), (Replies{"0:assign t0"}));
    EXPECT_EQ(h.join(1, 0.0), (Replies{"1:assign t1"}));
    EXPECT_TRUE(h.done(1, 1, 1.0).empty());
    EXPECT_EQ(h.step(net::MsgWorkRequest{1}, 1.0), (Replies{"1:assign t0"}));
    Replies last = h.done(1, 0, 2.0);
    std::sort(last.begin(), last.end());
    EXPECT_EQ(last, (Replies{"0:shutdown", "1:shutdown"}));
    EXPECT_FALSE(h.protocol.finished());

    // pe 0 finished t0 before the Shutdown reached it: discarded by the
    // protocol itself, never shown to the scheduler.
    EXPECT_TRUE(h.done(0, 0, 2.1, {{3, 42}}).empty());
    EXPECT_EQ(h.sched.completions_discarded(), 0u);
    EXPECT_EQ(h.protocol.report().slaves[0].results_discarded, 1u);
    EXPECT_EQ(h.protocol.report().slaves[0].cells_discarded, 1'000u);
    EXPECT_EQ(h.merger.results_merged(), 2u);

    EXPECT_EQ(h.join(2, 3.0), (Replies{"2:shutdown"}));
    EXPECT_TRUE(h.protocol.finished());
    const RunReport report = h.protocol.take_report();
    EXPECT_EQ(report.completions_discarded, 1u);
    EXPECT_EQ(metrics.snapshot().counter("sched.completions_discarded"),
              report.completions_discarded);
    EXPECT_EQ(report.late_completions_discarded, 0u);
    EXPECT_EQ(report.accepted_cells, 2'000u);
}

TEST(MasterProtocol, NoDeadlineWithoutLivenessOrParkedRetries) {
    Harness off(1, 1);
    EXPECT_EQ(off.protocol.next_deadline(), kInf);
    off.join(0, 0.0);
    EXPECT_EQ(off.protocol.next_deadline(), kInf);
    off.step(net::MsgProgress{0, 1e6}, 0.3);
    EXPECT_EQ(off.protocol.next_deadline(), kInf);

    Harness on(1, 1, with_liveness(0.5));
    EXPECT_EQ(on.protocol.next_deadline(), kInf);  // no Active slave yet
    on.join(0, 0.0);
    EXPECT_EQ(on.protocol.next_deadline(), 0.5);
}

}  // namespace
}  // namespace swh::runtime
