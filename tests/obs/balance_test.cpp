// Balance-auditor coverage: the busy/comm/idle decomposition, critical
// path, straggler identification, and dropped-event propagation on
// hand-built traces with known answers, plus the determinism contract
// on real DES runs (identical seeded simulations must produce
// byte-identical reports).

#include "obs/balance.hpp"

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "obs/sched_log.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace swh::obs {
namespace {

TraceEvent ev(double t, EventKind kind, core::PeId pe,
              core::TaskId task = kNoTask, double value = 0.0,
              const char* name = nullptr) {
    return TraceEvent{t, kind, pe, task, value, name};
}

TraceLaneData lane(std::string label, std::vector<TraceEvent> events,
                   std::uint64_t dropped = 0) {
    TraceLaneData l;
    l.label = std::move(label);
    l.events = std::move(events);
    l.dropped = dropped;
    return l;
}

TEST(Balance, EmptyTraceYieldsZeroReport) {
    const BalanceReport rep = analyze_balance(Trace{});
    EXPECT_EQ(rep.pe_count, 0u);
    EXPECT_EQ(rep.horizon_s, 0.0);
    EXPECT_EQ(rep.straggler, BalanceReport::kNoStraggler);
    EXPECT_TRUE(rep.critical_path.empty());
    EXPECT_FALSE(rep.to_text().empty());  // still renders
}

TEST(Balance, DecomposesBusyCommIdleAgainstAssignments) {
    // pe 7: task 1 assigned at 0.2, runs [1, 4]; task 2 assigned at
    // 4.5, runs [5, 9]. Horizon forced to 10.
    Trace trace;
    trace.lanes.push_back(lane(
        "master", {ev(0.2, EventKind::TaskAssigned, 7, 1),
                   ev(4.5, EventKind::TaskAssigned, 7, 2)}));
    trace.lanes.push_back(lane(
        "gpu0", {ev(1.0, EventKind::SpanBegin, 7, 1, 0.0, "task"),
                 ev(4.0, EventKind::SpanEnd, 7, 1, 0.0, "task"),
                 ev(5.0, EventKind::SpanBegin, 7, 2, 0.0, "task"),
                 ev(9.0, EventKind::SpanEnd, 7, 2, 0.0, "task")}));
    BalanceOptions opts;
    opts.horizon_s = 10.0;
    const BalanceReport rep = analyze_balance(trace, opts);

    ASSERT_EQ(rep.pe_count, 1u);
    const BalancePe& pe = rep.pes[0];
    EXPECT_EQ(pe.label, "gpu0");
    EXPECT_EQ(pe.pe, 7u);
    EXPECT_DOUBLE_EQ(pe.busy_s, 7.0);
    // Span 1: assignment landed 0.8 s before the span opened (all of it
    // inside the [0, 1] gap). Span 2: 0.5 s after the previous end.
    EXPECT_NEAR(pe.comm_s, 0.8 + 0.5, 1e-12);
    EXPECT_NEAR(pe.idle_s, 10.0 - 7.0 - 1.3, 1e-12);
    EXPECT_EQ(pe.tasks_accepted, 2u);
    EXPECT_EQ(pe.tasks_aborted, 0u);
    EXPECT_DOUBLE_EQ(rep.ideal_makespan_s, 7.0);
    EXPECT_DOUBLE_EQ(rep.imbalance_ratio, 1.0);  // single PE
    EXPECT_NEAR(rep.efficiency, 0.7, 1e-12);
}

TEST(Balance, NoAssignmentRecordMeansGapIsPlainIdle) {
    Trace trace;
    trace.lanes.push_back(lane(
        "sse0", {ev(2.0, EventKind::SpanBegin, 3, 0, 0.0, "task"),
                 ev(6.0, EventKind::SpanEnd, 3, 0, 0.0, "task")}));
    BalanceOptions opts;
    opts.horizon_s = 8.0;
    const BalanceReport rep = analyze_balance(trace, opts);
    ASSERT_EQ(rep.pe_count, 1u);
    EXPECT_DOUBLE_EQ(rep.pes[0].comm_s, 0.0);
    EXPECT_DOUBLE_EQ(rep.pes[0].idle_s, 4.0);
}

TEST(Balance, AbortedAndUnmatchedSpansCountAsAborted) {
    Trace trace;
    trace.lanes.push_back(lane(
        "sse0",
        {ev(0.0, EventKind::SpanBegin, 1, 4, 0.0, "task"),
         ev(2.0, EventKind::SpanEnd, 1, 4, 1.0, "task"),  // outcome 1
         ev(3.0, EventKind::SpanBegin, 1, 5, 0.0, "task"),
         ev(4.0, EventKind::Progress, 1, kNoTask, 10.0)}));  // never ends
    const BalanceReport rep = analyze_balance(trace);
    ASSERT_EQ(rep.pe_count, 1u);
    EXPECT_EQ(rep.pes[0].tasks_accepted, 0u);
    EXPECT_EQ(rep.pes[0].tasks_aborted, 2u);
    // The unmatched begin closes at the lane's last timestamp.
    EXPECT_DOUBLE_EQ(rep.pes[0].last_end_s, 4.0);
    EXPECT_DOUBLE_EQ(rep.pes[0].busy_s, 2.0 + 1.0);
}

TEST(Balance, ReplicaEventsAttributeToTheReceivingPe) {
    Trace trace;
    trace.lanes.push_back(lane(
        "master", {ev(1.0, EventKind::ReplicaIssued, 2, 9)}));
    trace.lanes.push_back(lane(
        "gpu0", {ev(1.5, EventKind::SpanBegin, 2, 9, 0.0, "task"),
                 ev(2.5, EventKind::SpanEnd, 2, 9, 0.0, "task")}));
    const BalanceReport rep = analyze_balance(trace);
    ASSERT_EQ(rep.pe_count, 1u);
    EXPECT_EQ(rep.pes[0].replicas_received, 1u);
    // A ReplicaIssued record also supplies the dispatch-gap evidence.
    EXPECT_NEAR(rep.pes[0].comm_s, 0.5, 1e-12);
}

TEST(Balance, CriticalPathChainsAcrossLanesAndRecordsWaits) {
    // t0 on lane A [0, 5], then t1 on lane B [5.2, 9]; an unrelated
    // short span elsewhere must not enter the chain.
    Trace trace;
    trace.lanes.push_back(lane(
        "A", {ev(0.0, EventKind::SpanBegin, 0, 0, 0.0, "task"),
              ev(5.0, EventKind::SpanEnd, 0, 0, 0.0, "task")}));
    trace.lanes.push_back(lane(
        "B", {ev(5.2, EventKind::SpanBegin, 1, 1, 0.0, "task"),
              ev(9.0, EventKind::SpanEnd, 1, 1, 0.0, "task")}));
    trace.lanes.push_back(lane(
        "C", {ev(0.0, EventKind::SpanBegin, 2, 2, 0.0, "task"),
              ev(2.0, EventKind::SpanEnd, 2, 2, 0.0, "task")}));
    const BalanceReport rep = analyze_balance(trace);

    ASSERT_EQ(rep.critical_path.size(), 2u);
    EXPECT_EQ(rep.critical_path[0].task, 0u);
    EXPECT_EQ(rep.critical_path[1].task, 1u);
    EXPECT_DOUBLE_EQ(rep.critical_path[0].wait_s, 0.0);
    EXPECT_NEAR(rep.critical_path[1].wait_s, 0.2, 1e-12);
    EXPECT_NEAR(rep.critical_path_s, 9.0, 1e-12);
    EXPECT_NEAR(rep.critical_coverage, 1.0, 1e-9);
}

TEST(Balance, CriticalPathStopsAtArrivalBoundGaps) {
    // A 4 s gap with the default 5%-of-horizon tolerance (0.45 s): the
    // late span was arrival-bound, so the chain is just that span.
    Trace trace;
    trace.lanes.push_back(lane(
        "A", {ev(0.0, EventKind::SpanBegin, 0, 0, 0.0, "task"),
              ev(1.0, EventKind::SpanEnd, 0, 0, 0.0, "task"),
              ev(5.0, EventKind::SpanBegin, 0, 1, 0.0, "task"),
              ev(9.0, EventKind::SpanEnd, 0, 1, 0.0, "task")}));
    const BalanceReport rep = analyze_balance(trace);
    ASSERT_EQ(rep.critical_path.size(), 1u);
    EXPECT_EQ(rep.critical_path[0].task, 1u);
    EXPECT_NEAR(rep.critical_path_s, 4.0, 1e-12);
}

TEST(Balance, CellsComeFromLabels) {
    Trace trace;
    trace.lanes.push_back(lane(
        "known", {ev(0.0, EventKind::SpanBegin, 0, 0, 0.0, "task"),
                  ev(10.0, EventKind::SpanEnd, 0, 0, 0.0, "task")}));
    trace.lanes.push_back(lane(
        "unknown", {ev(0.0, EventKind::SpanBegin, 1, 1, 0.0, "task"),
                    ev(2.0, EventKind::Progress, 1, kNoTask, 100.0),
                    ev(4.0, EventKind::Progress, 1, kNoTask, 50.0),
                    ev(10.0, EventKind::SpanEnd, 1, 1, 0.0, "task")}));
    BalanceOptions opts;
    opts.cells_by_label.emplace_back("known", 5000.0);
    const BalanceReport rep = analyze_balance(trace, opts);
    ASSERT_EQ(rep.pe_count, 2u);
    EXPECT_DOUBLE_EQ(rep.pes[0].cells, 5000.0);
    EXPECT_DOUBLE_EQ(rep.pes[0].cells_per_second, 500.0);
    // A lane the caller gave no count is attributed none, whatever
    // Progress samples it carries.
    EXPECT_EQ(rep.pes[1].cells, 0.0);
    EXPECT_EQ(rep.pes[1].cells_per_second, 0.0);
}

TEST(Balance, StragglerIsLatestFinisherWithItsTail) {
    Trace trace;
    trace.lanes.push_back(lane(
        "fast", {ev(0.0, EventKind::SpanBegin, 0, 0, 0.0, "task"),
                 ev(6.0, EventKind::SpanEnd, 0, 0, 0.0, "task")}));
    trace.lanes.push_back(lane(
        "slow", {ev(0.0, EventKind::SpanBegin, 1, 1, 0.0, "task"),
                 ev(9.5, EventKind::SpanEnd, 1, 1, 0.0, "task")}));
    const BalanceReport rep = analyze_balance(trace);
    ASSERT_EQ(rep.straggler, 1u);
    EXPECT_NEAR(rep.straggler_tail_s, 3.5, 1e-12);
    EXPECT_NE(rep.to_text().find("straggler: slow"), std::string::npos);
}

TEST(Balance, DroppedEventCountsSurviveIntoTheReport) {
    Trace trace;
    trace.lanes.push_back(lane(
        "sse0",
        {ev(0.0, EventKind::SpanBegin, 0, 0, 0.0, "task"),
         ev(1.0, EventKind::SpanEnd, 0, 0, 0.0, "task")},
        /*dropped=*/3));
    const BalanceReport rep = analyze_balance(trace);
    EXPECT_EQ(rep.dropped_events, 3u);
    EXPECT_NE(rep.to_text().find("dropped 3"), std::string::npos);
    EXPECT_NE(rep.to_json().find("\"dropped_events\": 3"),
              std::string::npos);
}

// ---- DES integration: determinism and agreement with the simulator's
// own accounting ----------------------------------------------------------

sim::PeModelSpec pe_spec(std::string label, double gcups,
                         core::PeKind kind = core::PeKind::SseCore) {
    sim::PeModelSpec spec;
    spec.label = std::move(label);
    spec.kind = kind;
    spec.peak_gcups = gcups;
    return spec;
}

sim::SimConfig fig5_config() {
    // The paper's Fig. 5 worked example: 20 equal tasks on 1 GPU (6x)
    // + 3 SSE cores, PSS + workload adjustment.
    sim::SimConfig cfg;
    cfg.sched.replicate_only_if_faster = true;
    cfg.policy = core::make_pss;
    cfg.notify_period_s = 0.25;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths.assign(20, 6'000);
    cfg.pes.push_back(pe_spec("GPU1", 6.0, core::PeKind::Gpu));
    cfg.pes.push_back(pe_spec("SSE1", 1.0));
    cfg.pes.push_back(pe_spec("SSE2", 1.0));
    cfg.pes.push_back(pe_spec("SSE3", 1.0));
    return cfg;
}

BalanceReport analyze_fig5(std::string* text = nullptr,
                           std::string* json = nullptr) {
    const sim::SimReport r = sim::simulate(fig5_config());
    const BalanceReport rep =
        analyze_balance(r.trace, sim::balance_options(r));
    if (text != nullptr) *text = rep.to_text();
    if (json != nullptr) *json = rep.to_json();
    return rep;
}

TEST(BalanceDes, IdenticalSimulationsProduceByteIdenticalReports) {
    std::string text1, json1, text2, json2;
    analyze_fig5(&text1, &json1);
    analyze_fig5(&text2, &json2);
    EXPECT_EQ(text1, text2);
    EXPECT_EQ(json1, json2);
}

TEST(BalanceDes, BusySecondsMatchTheSimulatorsOwnAccounting) {
    const sim::SimReport r = sim::simulate(fig5_config());
    const BalanceReport rep =
        analyze_balance(r.trace, sim::balance_options(r));

    ASSERT_EQ(rep.pe_count, r.pes.size());
    for (std::size_t p = 0; p < r.pes.size(); ++p) {
        EXPECT_EQ(rep.pes[p].label, r.pes[p].label);
        EXPECT_NEAR(rep.pes[p].busy_s, r.pes[p].busy_seconds, 1e-9)
            << r.pes[p].label;
    }
    // Every PE row stays inside the horizon.
    for (const BalancePe& pe : rep.pes) {
        EXPECT_GE(pe.idle_s, 0.0);
        EXPECT_LE(pe.busy_s + pe.comm_s,
                  rep.horizon_s * (1.0 + 1e-9));
    }
}

TEST(BalanceDes, Fig5AuditMatchesThePapersWorkedExample) {
    const BalanceReport rep = analyze_fig5();
    ASSERT_EQ(rep.pe_count, 4u);
    // The GPU does 14 of the 20 tasks (incl. the t20 replica); each SSE
    // core gets 2-3. One replica is issued, to the GPU.
    EXPECT_EQ(rep.pes[0].tasks_accepted, 14u);
    EXPECT_EQ(rep.pes[0].replicas_received, 1u);
    EXPECT_GT(rep.imbalance_ratio, 1.0);
    EXPECT_LT(rep.imbalance_ratio, 1.5);
    EXPECT_GT(rep.efficiency, 0.7);
    // The chain that bounds the run covers (nearly) the whole horizon.
    EXPECT_GT(rep.critical_coverage, 0.9);
    EXPECT_FALSE(rep.critical_path.empty());
}

TEST(BalanceDes, WeightLogRecordsPssTrajectories) {
    const Trace trace = sim::simulate(fig5_config()).trace;

    const std::vector<WeightSample> samples = weight_samples(trace);
    ASSERT_FALSE(samples.empty());
    // One sample per Progress event the scheduler saw, in lane order,
    // each with the prior estimate that event carries.
    ASSERT_EQ(trace.lanes[0].label, "master");
    std::vector<TraceEvent> progress;
    for (const TraceEvent& e : trace.lanes[0].events) {
        if (e.kind == EventKind::Progress) progress.push_back(e);
    }
    ASSERT_EQ(samples.size(), progress.size());
    std::size_t estimates = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(samples[i].pe, progress[i].pe);
        EXPECT_EQ(samples[i].t, progress[i].t);
        EXPECT_EQ(samples[i].realised_cps, progress[i].value);
        EXPECT_EQ(samples[i].prior_estimate_cps, progress[i].aux);
        if (progress[i].aux > 0.0) ++estimates;
    }

    std::ostringstream csv;
    write_weights(csv, "w.csv", samples, {});
    EXPECT_EQ(csv.str().rfind("pe,label,t_seconds,realised_cps,"
                              "estimate_cps,rel_error\n",
                              0),
              0u);
    // Once the estimator has history, samples carry a prior estimate;
    // under the DES's steady rates it should track realised closely.
    std::size_t with_prior = 0;
    for (const WeightSample& s : samples) {
        EXPECT_GT(s.realised_cps, 0.0);
        if (s.prior_estimate_cps > 0.0) {
            ++with_prior;
            EXPECT_NEAR(s.prior_estimate_cps / s.realised_cps, 1.0, 0.5);
        }
    }
    EXPECT_GT(with_prior, 0u);
    EXPECT_EQ(with_prior, estimates);
}

TEST(BalanceDes, WeightsJsonCarriesThePeLabels) {
    const std::vector<WeightSample> samples = {{0, 0.5, 2e9, 0.0},
                                               {1, 0.5, 1e9, 1.5e9}};
    const std::vector<std::string> labels = {"GPU1", "SSE1"};
    std::ostringstream json;
    write_weights(json, "weights.json", samples, labels);
    EXPECT_EQ(json.str(),
              "[\n"
              "  {\"pe\": 0, \"label\": \"GPU1\", \"t\": 0.5, "
              "\"realised_cps\": 2e+09, \"estimate_cps\": 0},\n"
              "  {\"pe\": 1, \"label\": \"SSE1\", \"t\": 0.5, "
              "\"realised_cps\": 1e+09, \"estimate_cps\": 1.5e+09}\n"
              "]\n");
    // A PE without a label falls back to its id, in both formats.
    std::ostringstream csv;
    write_weights(csv, "weights.csv", samples, std::span(labels).first(1));
    EXPECT_NE(csv.str().find("\n1,pe1,0.5,1e+09,1.5e+09,0.5\n"),
              std::string::npos);
}

TEST(BalanceDes, MasterLaneGrowsPastTheRingCapacity) {
    // Fig. 5 with a 1 ms notify period: the PEs report more rate
    // samples than a real run's ring holds. The DES lanes grow instead
    // of dropping, so the master lane keeps the earliest samples too.
    sim::SimConfig cfg = fig5_config();
    cfg.notify_period_s = 0.001;
    const Trace trace = sim::simulate(cfg).trace;
    EXPECT_EQ(trace.total_dropped(), 0u);
    ASSERT_EQ(trace.lanes[0].label, "master");
    EXPECT_GT(trace.lanes[0].events.size(),
              TraceRecorder::kDefaultLaneCapacity);
    const std::vector<WeightSample> samples = weight_samples(trace);
    ASSERT_FALSE(samples.empty());
    EXPECT_NEAR(samples.front().t, cfg.notify_period_s, 1e-12);
    EXPECT_GT(samples.back().t, 13.0);
}

TEST(BalanceDes, OverflowedLaneIsRefusedWithTheDroppedCount) {
    // A slave lane lost events, the master lane none: the weights reader
    // reads only the master lane, the balance audit every lane but the
    // channel lanes.
    Trace trace;
    trace.lanes.push_back(
        lane("master", {ev(0.0, EventKind::SlaveRegistered, 0),
                        ev(0.5, EventKind::Progress, 0, kNoTask, 2e9)}));
    trace.lanes.push_back(lane("gpu0", {}, /*dropped=*/5));
    EXPECT_EQ(weight_samples(trace).size(), 1u);
    EXPECT_EQ(analyze_balance(trace).dropped_events, 5u);
    auto expect_refusal = [](auto reader, const Trace& t,
                             std::uint64_t dropped) {
        try {
            reader(t);
            ADD_FAILURE() << "a truncated trace was read";
        } catch (const IoError& e) {
            EXPECT_EQ(std::string(e.what()).rfind(
                          "obs.trace.dropped " + std::to_string(dropped), 0),
                      0u)
                << e.what();
        }
    };
    expect_refusal([](const Trace& t) { require_audit_complete(t); }, trace,
                   5);

    // Once the master lane itself is short, the weights are refused too,
    // with that lane's count.
    trace.lanes[0].dropped = 3;
    expect_refusal([](const Trace& t) { (void)weight_samples(t); }, trace,
                   3);
    expect_refusal([](const Trace& t) { require_audit_complete(t); }, trace,
                   8);
}

TEST(Balance, OverflowingChannelLaneDoesNotRefuseTheAudit) {
    // A channel lane ("chan:<peer>") carries message sends and receives,
    // no task span or scheduler decision: the audit reads none of it,
    // so its overflow neither refuses the audit nor counts as dropped.
    Trace trace;
    trace.lanes.push_back(
        lane("master", {ev(0.2, EventKind::TaskAssigned, 0, 1)}));
    trace.lanes.push_back(
        lane("sse0", {ev(1.0, EventKind::SpanBegin, 0, 1, 0.0, "task"),
                      ev(2.0, EventKind::SpanEnd, 0, 1, 0.0, "task")}));
    trace.lanes.push_back(lane(channel_lane_label("master"),
                               {ev(9.0, EventKind::Progress, 0)},
                               /*dropped=*/40));
    EXPECT_TRUE(is_channel_lane(trace.lanes[2].label));
    EXPECT_FALSE(is_channel_lane("sse0"));
    EXPECT_NO_THROW(require_audit_complete(trace));
    const BalanceReport rep = analyze_balance(trace);
    EXPECT_EQ(rep.dropped_events, 0u);
    EXPECT_EQ(rep.events_analyzed, 3u);
    EXPECT_EQ(rep.horizon_s, 2.0);
    ASSERT_EQ(rep.pe_count, 1u);
    EXPECT_NEAR(rep.pes[0].comm_s, 0.8, 1e-12);

    // The same overflow on the slave lane still refuses.
    trace.lanes[1].dropped = 7;
    try {
        require_audit_complete(trace);
        ADD_FAILURE() << "a truncated slave lane was read";
    } catch (const IoError& e) {
        EXPECT_EQ(std::string(e.what()).rfind("obs.trace.dropped 7", 0), 0u)
            << e.what();
    }
}

}  // namespace
}  // namespace swh::obs
