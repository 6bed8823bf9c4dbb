// Dashboard frame rendering from a synthetic MetricsSnapshot: per-PE
// rate bars, counters in the header, funnel and queue lines, and
// graceful absence of everything when the snapshot is empty.

#include "obs/dashboard.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"

namespace swh::obs {
namespace {

MetricsSnapshot synthetic() {
    MetricsRegistry reg;
    reg.gauge("sched.pe.0.rate_cps").set(6.0e9);
    reg.gauge("sched.pe.1.rate_cps").set(1.0e9);
    reg.counter("sched.pe.0.accepted").add(14);
    reg.counter("sched.pe.1.accepted").add(3);
    reg.counter("sched.replicas_issued").add(1);
    reg.counter("sched.completions_accepted").add(17);
    reg.gauge("engine.cpu.filter.tau").set(87.0);
    reg.counter("engine.cpu.filter.cohorts").add(40);
    reg.counter("engine.cpu.filter.pruned").add(900);
    reg.counter("scan.dispatch.subjects_interseq").add(60);
    reg.counter("scan.dispatch.subjects_striped").add(10);
    reg.counter("engine.cpu.filter.hot").add(30);
    Histogram& depth = reg.histogram("channel.master_inbox.depth");
    for (int i = 0; i < 10; ++i) depth.record(2.0);
    return reg.snapshot();
}

TEST(Dashboard, RendersPeRowsWithLabelsAndRates) {
    DashboardOptions opts;
    opts.pe_labels = {"GPU1", "SSE1"};
    opts.elapsed_s = 12.5;
    const std::string frame = render_dashboard(synthetic(), opts);
    EXPECT_NE(frame.find("GPU1"), std::string::npos);
    EXPECT_NE(frame.find("SSE1"), std::string::npos);
    EXPECT_NE(frame.find("GCUPS"), std::string::npos);
    // Header carries elapsed time and acceptance totals.
    EXPECT_NE(frame.find("12.5"), std::string::npos);
    EXPECT_FALSE(frame.empty());
    EXPECT_EQ(frame.back(), '\n');
}

TEST(Dashboard, UnknownPesGetFallbackLabels) {
    const std::string frame = render_dashboard(synthetic(), {});
    EXPECT_NE(frame.find("pe0"), std::string::npos);
    EXPECT_NE(frame.find("pe1"), std::string::npos);
}

TEST(Dashboard, ShowsFunnelThresholdWhenArmed) {
    const std::string frame = render_dashboard(synthetic(), {});
    EXPECT_NE(frame.find("87"), std::string::npos);  // tau value
    // Pruned share of all subjects: 900 / (900 + 60 + 10 + 30 hot), not
    // pruned subjects per filtered cohort (900 / 40).
    EXPECT_NE(frame.find("funnel tau 87  pruned 90.0% of subjects"),
              std::string::npos)
        << frame;
}

TEST(Dashboard, FunnelShareCountsHotLanes) {
    // Every exact score came from hot lanes (no stage-2 route ran): the
    // hot subjects still belong to the denominator, so the pruned share
    // is 17200 / (17200 + 400), not 100%.
    MetricsRegistry reg;
    reg.gauge("engine.cpu.filter.tau").set(120.0);
    reg.counter("engine.cpu.filter.pruned").add(17200);
    reg.counter("engine.cpu.filter.hot").add(400);
    const std::string frame = render_dashboard(reg.snapshot(), {});
    EXPECT_NE(frame.find("funnel tau 120  pruned 97.7% of subjects"),
              std::string::npos)
        << frame;
}

TEST(Dashboard, EmptySnapshotRendersAFrameWithoutPeRows) {
    const std::string frame = render_dashboard(MetricsSnapshot{}, {});
    EXPECT_FALSE(frame.empty());
    EXPECT_EQ(frame.find("pe0"), std::string::npos);
}

TEST(Dashboard, RespectsExplicitFullScale) {
    DashboardOptions opts;
    opts.full_scale_gcups = 10.0;
    opts.bar_columns = 20;
    const std::string a = render_dashboard(synthetic(), opts);
    opts.full_scale_gcups = 100.0;
    const std::string b = render_dashboard(synthetic(), opts);
    EXPECT_NE(a, b);  // same data, different axis scale
}

}  // namespace
}  // namespace swh::obs
