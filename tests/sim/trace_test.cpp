// Coverage for the simulator's observability surfaces: Gantt spans,
// rate traces, assignment latency, and report accounting.

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
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

TEST(SimTrace, SpansTileEachPeWithoutOverlap) {
    const SimReport r = simulate(basic());
    for (std::size_t p = 0; p < 2; ++p) {
        std::vector<TaskSpan> mine;
        for (const TaskSpan& s : r.spans) {
            if (s.pe == p) mine.push_back(s);
        }
        std::sort(mine.begin(), mine.end(),
                  [](const TaskSpan& a, const TaskSpan& b) {
                      return a.start < b.start;
                  });
        for (std::size_t i = 1; i < mine.size(); ++i) {
            EXPECT_GE(mine[i].start, mine[i - 1].end - 1e-9)
                << "pe " << p << " span " << i;
        }
    }
}

TEST(SimTrace, AcceptedSpansCoverEveryTaskOnce) {
    const SimReport r = simulate(basic());
    std::vector<int> accepted(8, 0);
    for (const TaskSpan& s : r.spans) {
        if (s.accepted) ++accepted[s.task];
        EXPECT_GE(s.end, s.start);
    }
    for (const int count : accepted) EXPECT_EQ(count, 1);
}

TEST(SimTrace, BusySecondsMatchSpanLengths) {
    const SimReport r = simulate(basic());
    for (std::size_t p = 0; p < 2; ++p) {
        double span_total = 0.0;
        for (const TaskSpan& s : r.spans) {
            if (s.pe == p) span_total += s.end - s.start;
        }
        EXPECT_NEAR(r.pes[p].busy_seconds, span_total, 1e-6);
    }
}

TEST(SimTrace, RateSamplesMatchNominalSpeed) {
    SimConfig cfg = basic(6);
    cfg.notify_period_s = 0.5;
    const SimReport r = simulate(cfg);
    ASSERT_FALSE(r.rates.empty());
    for (const RateSample& s : r.rates) {
        EXPECT_NEAR(s.gcups, 1.0, 0.05) << "t=" << s.time;
    }
}

TEST(SimTrace, AssignLatencyDelaysEveryStart) {
    SimConfig cfg = basic(4);
    cfg.assign_latency_s = 0.5;
    const SimReport r = simulate(cfg);
    // First task on each PE cannot start before the reply lands.
    double first_start = 1e18;
    for (const TaskSpan& s : r.spans) {
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
    const std::string gantt = render_gantt(r, cfg.pes, 1.0);
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
    for (const TaskSpan& s : r.spans) {
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
    ASSERT_EQ(r.spans.size(), 3u);
    EXPECT_EQ(r.spans[0].task, 1u);
    EXPECT_EQ(r.spans[1].task, 2u);
    EXPECT_EQ(r.spans[2].task, 0u);
}

}  // namespace
}  // namespace swh::sim
