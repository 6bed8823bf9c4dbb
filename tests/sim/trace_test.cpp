// Coverage for the simulator's trace (the runtime's master lane and
// per-PE "task" span lanes), assignment latency, and report accounting.

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/balance.hpp"
#include "obs/sched_log.hpp"
#include "sim/simulator.hpp"
#include "task_spans.hpp"
#include "util/error.hpp"

namespace swh::sim {
namespace {

PeModelSpec pe(std::string label, double gcups,
               core::PeKind kind = core::PeKind::SseCore) {
    PeModelSpec spec;
    spec.label = std::move(label);
    spec.kind = kind;
    spec.peak_gcups = gcups;
    return spec;
}

SimConfig basic(std::size_t tasks = 8) {
    SimConfig cfg;
    cfg.policy = core::make_pss;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths.assign(tasks, 1'000);  // 1 GCUP-second each
    cfg.pes = {pe("A", 1.0), pe("B", 1.0)};
    return cfg;
}

TEST(SimTrace, PeLanesCarryTheSlaveLoopsTaskSpans) {
    const SimReport r = simulate(basic());
    ASSERT_EQ(r.trace.lanes.size(), 3u);
    EXPECT_EQ(r.trace.lanes[0].label, "master");
    EXPECT_EQ(r.trace.total_dropped(), 0u);
    for (std::size_t p = 0; p < 2; ++p) {
        const obs::TraceLaneData& lane = r.trace.lanes[1 + p];
        EXPECT_EQ(lane.label, r.pes[p].label);
        ASSERT_FALSE(lane.events.empty());
        ASSERT_EQ(lane.events.size() % 2, 0u);
        // Begin/end pairs of one "task" span at a time, as
        // run_slave_loop writes them.
        for (std::size_t i = 0; i < lane.events.size(); i += 2) {
            const obs::TraceEvent& b = lane.events[i];
            const obs::TraceEvent& e = lane.events[i + 1];
            EXPECT_EQ(b.kind, obs::EventKind::SpanBegin);
            EXPECT_EQ(e.kind, obs::EventKind::SpanEnd);
            EXPECT_STREQ(b.name, "task");
            EXPECT_STREQ(e.name, "task");
            EXPECT_EQ(b.task, e.task);
            EXPECT_EQ(b.pe, p);
            EXPECT_EQ(e.pe, p);
            EXPECT_LE(b.t, e.t);
        }
    }
}

TEST(SimTrace, JoinerGetsALaneAGanttRowAndABalanceRow) {
    SimConfig cfg = basic(30);
    cfg.leave_events = {LeaveEvent{3.0, 1}};
    cfg.join_events = {JoinEvent{6.0, pe("late", 4.0, core::PeKind::Gpu)}};
    const SimReport r = simulate(cfg);
    ASSERT_EQ(r.pes.size(), 3u);
    ASSERT_GT(r.pes[2].results_accepted, 0u);
    ASSERT_EQ(r.trace.lanes.size(), 4u);
    EXPECT_EQ(r.trace.lanes[3].label, "late");
    std::size_t joiner_spans = 0;
    for (const Span& s : task_spans(r)) joiner_spans += s.pe == 2 ? 1 : 0;
    EXPECT_EQ(joiner_spans, r.pes[2].results_accepted +
                                r.pes[2].results_discarded +
                                r.pes[2].tasks_aborted);

    EXPECT_NE(obs::render_trace_gantt(r.trace, 1.0).find("late |"),
              std::string::npos);
    const obs::BalanceReport balance =
        obs::analyze_balance(r.trace, balance_options(r));
    ASSERT_EQ(balance.pe_count, 3u);
    EXPECT_EQ(balance.pes[2].label, "late");
    EXPECT_EQ(balance.pes[2].pe, 2u);
    EXPECT_EQ(balance.pes[2].tasks_accepted, r.pes[2].results_accepted);
    EXPECT_NEAR(balance.pes[2].busy_s, r.pes[2].busy_seconds, 1e-9);
    EXPECT_GT(balance.pes[2].cells_per_second, 0.0);
}

TEST(SimTrace, SpansTileEachPeWithoutOverlap) {
    const SimReport r = simulate(basic());
    const std::vector<Span> spans = task_spans(r);
    for (std::size_t p = 0; p < 2; ++p) {
        std::vector<Span> mine;
        for (const Span& s : spans) {
            if (s.pe == p) mine.push_back(s);
        }
        ASSERT_FALSE(mine.empty());
        for (std::size_t i = 1; i < mine.size(); ++i) {
            EXPECT_GE(mine[i].start, mine[i - 1].end - 1e-9)
                << "pe " << p << " span " << i;
        }
    }
}

TEST(SimTrace, AcceptedSpansCoverEveryTaskOnce) {
    const SimReport r = simulate(basic());
    const std::vector<Span> spans = task_spans(r);
    for (const Span& s : spans) EXPECT_GE(s.end, s.start);
    // The master lane names each task's winner; the winner's lane holds
    // the finished span of that task.
    std::vector<int> accepted(8, 0);
    for (const obs::TraceEvent& e : r.trace.lanes.front().events) {
        if (e.kind != obs::EventKind::CompletedAccepted) continue;
        ++accepted[e.task];
        EXPECT_TRUE(std::any_of(
            spans.begin(), spans.end(), [&](const Span& s) {
                return s.task == e.task && s.pe == e.pe && !s.aborted &&
                       s.end == e.t;
            }))
            << "task " << e.task;
    }
    for (const int count : accepted) EXPECT_EQ(count, 1);
}

TEST(SimTrace, BusySecondsMatchSpanLengths) {
    const SimReport r = simulate(basic());
    for (std::size_t p = 0; p < 2; ++p) {
        double span_total = 0.0;
        for (const Span& s : task_spans(r)) {
            if (s.pe == p) span_total += s.end - s.start;
        }
        EXPECT_NEAR(r.pes[p].busy_seconds, span_total, 1e-6);
    }
}

TEST(SimTrace, RateSamplesMatchNominalSpeed) {
    SimConfig cfg = basic(6);
    cfg.notify_period_s = 0.5;
    const SimReport r = simulate(cfg);
    const std::vector<obs::WeightSample> samples =
        obs::weight_samples(r.trace);
    ASSERT_FALSE(samples.empty());
    for (const obs::WeightSample& s : samples) {
        EXPECT_NEAR(s.realised_cps / 1e9, 1.0, 0.05) << "t=" << s.t;
    }
}

TEST(SimTrace, AssignLatencyDelaysEveryStart) {
    SimConfig cfg = basic(4);
    cfg.assign_latency_s = 0.5;
    const SimReport r = simulate(cfg);
    // First task on each PE cannot start before the reply lands.
    double first_start = 1e18;
    for (const Span& s : task_spans(r)) {
        first_start = std::min(first_start, s.start);
    }
    EXPECT_GE(first_start, 0.5 - 1e-9);
    // Serial arithmetic: 4 tasks x 1 s on 2 PEs + at least 2 round trips
    // per PE.
    EXPECT_GE(r.makespan, 2.0 + 2 * 0.5 - 1e-9);
}

TEST(SimTrace, GanttMarksAbortedSpans) {
    SimConfig cfg;
    cfg.policy = core::make_self_scheduling;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths = {10'000, 10'000};
    cfg.pes = {pe("slow", 0.1), pe("fast", 10.0, core::PeKind::Gpu)};
    const SimReport r = simulate(cfg);
    const std::string gantt = obs::render_trace_gantt(r.trace, 1.0);
    EXPECT_NE(gantt.find('x'), std::string::npos);  // aborted replica
}

TEST(SimTrace, ReportCountsReplicaDuplicates) {
    // The fast PE replicates the slow PE's task and wins. The run ends
    // there, as on the runtime: the slow PE's replica is aborted at the
    // makespan, and the cells it computed count as duplicate work.
    SimConfig cfg;
    cfg.policy = core::make_self_scheduling;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths = {10'000, 10'000};
    cfg.pes = {pe("slow", 0.1), pe("fast", 10.0, core::PeKind::Gpu)};
    const SimReport r = simulate(cfg);
    std::size_t slow_aborted = 0;
    for (const Span& s : task_spans(r)) {
        if (s.pe != 0 || !s.aborted) continue;
        ++slow_aborted;
        EXPECT_DOUBLE_EQ(s.end, r.makespan);
    }
    EXPECT_EQ(slow_aborted, 1u);
    EXPECT_EQ(r.completions_discarded, 0u);
    EXPECT_GT(r.computed_cells, r.accepted_cells);
    EXPECT_DOUBLE_EQ(r.all_idle_time, r.makespan);
}

TEST(SimTrace, LptOrderingInSimulation) {
    SimConfig cfg;
    cfg.sched.ready_order = core::ReadyOrder::LargestFirst;
    cfg.policy = core::make_self_scheduling;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths = {1'000, 9'000, 5'000};
    cfg.pes = {pe("A", 1.0)};
    const SimReport r = simulate(cfg);
    // Single PE: spans must run 9k, 5k, 1k in that order.
    const std::vector<Span> spans = task_spans(r);
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].task, 1u);
    EXPECT_EQ(spans[1].task, 2u);
    EXPECT_EQ(spans[2].task, 0u);
}

}  // namespace
}  // namespace swh::sim
