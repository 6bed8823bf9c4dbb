#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "obs/sched_log.hpp"
#include "task_spans.hpp"
#include "util/error.hpp"

namespace swh::sim {
namespace {

PeModelSpec flat_pe(std::string label, core::PeKind kind, double gcups) {
    PeModelSpec pe;
    pe.label = std::move(label);
    pe.kind = kind;
    pe.peak_gcups = gcups;
    pe.task_overhead_s = 0.0;
    return pe;
}

/// The paper's Fig. 5 platform: 1 GPU at 6 "units" and 3 SSE cores at 1,
/// 20 equal tasks that take 1 s on the GPU.
SimConfig figure5_config(bool adjust) {
    SimConfig cfg;
    cfg.sched.workload_adjust = adjust;
    // Match the figure: an equally-slow SSE does not re-run t20; only the
    // faster GPU does.
    cfg.sched.replicate_only_if_faster = true;
    cfg.policy = core::make_pss;
    cfg.notify_period_s = 0.25;
    cfg.db_residues = 1'000'000;
    // 20 tasks x 6000 query residues -> 6e9 cells = 1 s at 6 GCUPS.
    cfg.query_lengths.assign(20, 6'000);
    cfg.pes = {flat_pe("GPU1", core::PeKind::Gpu, 6.0),
               flat_pe("SSE1", core::PeKind::SseCore, 1.0),
               flat_pe("SSE2", core::PeKind::SseCore, 1.0),
               flat_pe("SSE3", core::PeKind::SseCore, 1.0)};
    return cfg;
}

TEST(SimFigure5, WithAdjustmentCompletesAt14s) {
    const SimReport r = simulate(figure5_config(true));
    EXPECT_NEAR(r.makespan, 14.0, 0.3);
    EXPECT_GE(r.replicas_issued, 1u);
    EXPECT_EQ(r.accepted_cells, std::uint64_t{20} * 6'000 * 1'000'000);
    // The GPU's replica of t20 wins; SSE1's copy stops when the run
    // ends instead of running on to 18 s.
    bool sse_copy_of_t20 = false;
    for (const Span& s : task_spans(r)) {
        if (s.task != 19 || s.pe != 1) continue;
        sse_copy_of_t20 = true;
        EXPECT_TRUE(s.aborted);
        EXPECT_NEAR(s.end, 14.0, 0.3);
    }
    EXPECT_TRUE(sse_copy_of_t20);
}

TEST(SimFigure5, WithoutAdjustmentCompletesAt18s) {
    const SimReport r = simulate(figure5_config(false));
    EXPECT_NEAR(r.makespan, 18.0, 0.3);
    EXPECT_EQ(r.replicas_issued, 0u);
}

TEST(SimFigure5, GanttRendersAllPes) {
    const SimReport r = simulate(figure5_config(true));
    const std::string gantt = obs::render_trace_gantt(r.trace, 0.5);
    EXPECT_NE(gantt.find("GPU1"), std::string::npos);
    EXPECT_NE(gantt.find("SSE3"), std::string::npos);
}

TEST(Sim, Deterministic) {
    const SimReport a = simulate(figure5_config(true));
    const SimReport b = simulate(figure5_config(true));
    EXPECT_EQ(a.makespan, b.makespan);
    ASSERT_EQ(a.trace.lanes.size(), b.trace.lanes.size());
    for (std::size_t l = 0; l < a.trace.lanes.size(); ++l) {
        const auto& x = a.trace.lanes[l].events;
        const auto& y = b.trace.lanes[l].events;
        ASSERT_EQ(x.size(), y.size()) << a.trace.lanes[l].label;
        for (std::size_t i = 0; i < x.size(); ++i) {
            EXPECT_EQ(x[i].kind, y[i].kind);
            EXPECT_EQ(x[i].pe, y[i].pe);
            EXPECT_EQ(x[i].task, y[i].task);
            EXPECT_EQ(x[i].t, y[i].t);
            EXPECT_EQ(x[i].value, y[i].value);
        }
    }
}

TEST(Sim, HomogeneousScalingIsNearLinear) {
    // Table III's shape: k SSE cores -> ~k x speedup.
    auto makespan_with = [](std::size_t cores) {
        SimConfig cfg;
        cfg.policy = core::make_pss;
        cfg.db_residues = 10'000'000;
        cfg.query_lengths.assign(40, 1'000);
        for (std::size_t i = 0; i < cores; ++i) {
            cfg.pes.push_back(flat_pe("SSE" + std::to_string(i),
                                      core::PeKind::SseCore, 2.0));
        }
        return simulate(cfg).makespan;
    };
    const double t1 = makespan_with(1);
    const double t2 = makespan_with(2);
    const double t4 = makespan_with(4);
    EXPECT_NEAR(t1 / t2, 2.0, 0.25);
    EXPECT_NEAR(t1 / t4, 4.0, 0.6);
}

TEST(Sim, SerialMakespanMatchesArithmetic) {
    SimConfig cfg;
    cfg.policy = core::make_self_scheduling;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths = {1'000, 2'000, 3'000};  // 1, 2, 3 GCUP-seconds
    cfg.pes = {flat_pe("S", core::PeKind::SseCore, 1.0)};
    const SimReport r = simulate(cfg);
    // (1 + 2 + 3) e9 cells at 1 GCUPS.
    EXPECT_NEAR(r.makespan, 6.0, 1e-6);
    EXPECT_EQ(r.pes[0].results_accepted, 3u);
}

TEST(Sim, TaskOverheadCounts) {
    SimConfig cfg;
    cfg.policy = core::make_self_scheduling;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths = {1'000, 1'000};
    PeModelSpec pe = flat_pe("S", core::PeKind::SseCore, 1.0);
    pe.task_overhead_s = 0.5;
    cfg.pes = {pe};
    const SimReport r = simulate(cfg);
    EXPECT_NEAR(r.makespan, 2.0 + 2 * 0.5, 1e-6);
}

TEST(Sim, LoadEventSlowsPeAndPssAdapts) {
    // Fig. 8's shape: introduce 50% local load on one of four cores.
    auto run = [](bool loaded) {
        SimConfig cfg;
        cfg.policy = core::make_pss;
        cfg.notify_period_s = 0.5;
        cfg.db_residues = 10'000'000;
        cfg.query_lengths.assign(40, 1'000);
        for (int i = 0; i < 4; ++i) {
            cfg.pes.push_back(
                flat_pe(std::string("C").append(std::to_string(i)),
                        core::PeKind::SseCore, 2.0));
        }
        if (loaded) {
            // Halve core 0's speed at 30% of the dedicated makespan.
            cfg.load_events = {LoadEvent{15.0, 0, 0.5}};
        }
        return simulate(cfg);
    };
    const double dedicated = run(false).makespan;
    const double loaded = run(true).makespan;
    EXPECT_GT(loaded, dedicated);
    // Losing half of one of four cores late in the run must cost far
    // less than the 12.5% steady-state capacity loss would suggest.
    EXPECT_LT(loaded, dedicated * 1.25);
}

TEST(Sim, RateSamplesTrackLoadChange) {
    SimConfig cfg;
    cfg.policy = core::make_self_scheduling;
    cfg.notify_period_s = 0.5;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths.assign(10, 10'000);  // 10 x 10 s at 1 GCUPS
    cfg.pes = {flat_pe("C0", core::PeKind::SseCore, 1.0)};
    cfg.load_events = {LoadEvent{50.0, 0, 0.5}};
    const SimReport r = simulate(cfg);
    double early = 0.0, late = 0.0;
    int early_n = 0, late_n = 0;
    for (const obs::WeightSample& s : obs::weight_samples(r.trace)) {
        if (s.t < 49.0) {
            early += s.realised_cps / 1e9;
            ++early_n;
        } else if (s.t > 52.0) {
            late += s.realised_cps / 1e9;
            ++late_n;
        }
    }
    ASSERT_GT(early_n, 0);
    ASSERT_GT(late_n, 0);
    EXPECT_NEAR(early / early_n, 1.0, 0.05);
    EXPECT_NEAR(late / late_n, 0.5, 0.05);
}

TEST(Sim, LeaveEventRescuesTasks) {
    SimConfig cfg;
    cfg.policy = [] { return core::make_chunked_self_scheduling(5); };
    cfg.db_residues = 1'000'000;
    cfg.query_lengths.assign(10, 1'000);
    cfg.pes = {flat_pe("A", core::PeKind::SseCore, 1.0),
               flat_pe("B", core::PeKind::SseCore, 1.0)};
    cfg.leave_events = {LeaveEvent{1.5, 0}};
    const SimReport r = simulate(cfg);
    EXPECT_EQ(r.accepted_cells, std::uint64_t{10} * 1'000 * 1'000'000);
    EXPECT_GE(r.pes[0].tasks_aborted, 1u);
    EXPECT_GE(r.pes[1].results_accepted, 7u);
}

TEST(Sim, JoinEventAddsCapacity) {
    auto run = [](bool with_join) {
        SimConfig cfg;
        cfg.policy = core::make_pss;
        cfg.db_residues = 10'000'000;
        cfg.query_lengths.assign(20, 1'000);
        cfg.pes = {flat_pe("A", core::PeKind::SseCore, 1.0)};
        if (with_join) {
            cfg.join_events = {
                JoinEvent{1.0, flat_pe("J", core::PeKind::Gpu, 10.0)}};
        }
        return simulate(cfg).makespan;
    };
    EXPECT_LT(run(true), 0.6 * run(false));
}

TEST(Sim, RejectsEmptyPlatform) {
    SimConfig cfg;
    cfg.db_residues = 1;
    cfg.query_lengths = {10};
    EXPECT_THROW(simulate(cfg), ContractError);
}

TEST(Sim, MaxTimeGuard) {
    SimConfig cfg;
    cfg.policy = core::make_self_scheduling;
    cfg.db_residues = 1'000'000'000;
    cfg.query_lengths = {1'000'000};
    cfg.pes = {flat_pe("S", core::PeKind::SseCore, 0.001)};
    cfg.max_time = 10.0;  // task needs 1e15/1e6 s — way beyond
    EXPECT_THROW(simulate(cfg), ContractError);
}

}  // namespace
}  // namespace swh::sim
