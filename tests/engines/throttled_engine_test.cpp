#include "engines/throttled_engine.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

#include "engines/cpu_engine.hpp"
#include "engines/sim_gpu_engine.hpp"
#include "util/timer.hpp"

namespace swh::engines {
namespace {

const align::ScoreMatrix& blosum() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

EngineConfig config() {
    EngineConfig c;
    c.matrix = &blosum();
    c.gap = {10, 2};
    c.top_k = 3;
    c.isa = simd::best_supported();
    c.progress_grain = 20'000;  // frequent pacing points
    return c;
}

db::Database tiny_db() {
    db::DatabaseSpec spec;
    spec.name = "tiny";
    spec.num_sequences = 20;
    spec.length.min_len = 30;
    spec.length.max_len = 60;
    spec.seed = 3;
    return db::Database::generate(spec);
}

align::Sequence query() {
    Rng rng(4);
    return db::random_protein(rng, 50, "q");
}

TEST(ThrottledEngine, PacesToTargetRate) {
    const db::Database database = tiny_db();
    const align::Sequence q = query();
    const std::uint64_t cells = q.size() * database.residues();
    // Target rate set so the task takes ~0.1 s.
    const double gcups = static_cast<double>(cells) / 0.1 / 1e9;
    ThrottledEngine engine(std::make_unique<CpuEngine>(config()), gcups);
    Timer t;
    const auto r = engine.execute(q, 0, 0, database, nullptr);
    const double elapsed = t.seconds();
    EXPECT_EQ(r.cells, cells);
    EXPECT_GE(elapsed, 0.09);
    EXPECT_LT(elapsed, 0.6);  // generous: CI machines stall
}

TEST(ThrottledEngine, AddsPerTaskOverhead) {
    const db::Database database = tiny_db();
    const align::Sequence q = query();
    ThrottledEngine engine(std::make_unique<CpuEngine>(config()),
                           /*gcups=*/1e3, /*overhead_s=*/0.08);
    Timer t;
    engine.execute(q, 0, 0, database, nullptr);
    EXPECT_GE(t.seconds(), 0.08);
}

TEST(ThrottledEngine, ResultsUnchangedByPacing) {
    const db::Database database = tiny_db();
    const align::Sequence q = query();
    CpuEngine plain(config());
    ThrottledEngine paced(std::make_unique<CpuEngine>(config()), 1e3);
    const auto a = plain.execute(q, 0, 0, database, nullptr);
    const auto b = paced.execute(q, 0, 0, database, nullptr);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t i = 0; i < a.hits.size(); ++i) {
        EXPECT_EQ(a.hits[i], b.hits[i]);
    }
}

/// Reports cancellation once `after_s` has passed since construction.
class CancelAfter final : public ExecutionObserver {
public:
    explicit CancelAfter(double after_s) : after_s_(after_s) {}
    bool cancelled() const override { return clock_.seconds() >= after_s_; }
    double after_s() const { return after_s_; }

private:
    double after_s_;
    Timer clock_;
};

TEST(ThrottledEngine, CancelStopsPacingMidGrain) {
    // 1.5 M cells at 0.01 GCUPS: the first 500 k-cell grain alone paces
    // for 50 ms. A cancel 10 ms in, while that grain is being paced,
    // must end the task within 20 ms instead of sleeping out the grain.
    db::DatabaseSpec spec;
    spec.name = "cancel";
    spec.num_sequences = 100;
    spec.length.min_len = 100;
    spec.length.max_len = 200;
    spec.seed = 5;
    const db::Database database = db::Database::generate(spec);
    Rng rng(6);
    const align::Sequence q = db::random_protein(rng, 100, "q");
    EngineConfig c = config();
    c.progress_grain = 500'000;
    ThrottledEngine engine(std::make_unique<CpuEngine>(c), /*gcups=*/0.01);
    Timer t;
    CancelAfter cancel(0.01);
    engine.execute(q, 0, 0, database, &cancel);
    EXPECT_LT(t.seconds() - cancel.after_s(), 0.02);
}

TEST(ThrottledEngine, PreservesKind) {
    ThrottledEngine engine(std::make_unique<CpuEngine>(config()), 1.0);
    EXPECT_EQ(engine.kind(), core::PeKind::SseCore);
}

TEST(ThrottledEngine, RejectsBadConfig) {
    EXPECT_THROW(ThrottledEngine(nullptr, 1.0), ContractError);
    EXPECT_THROW(
        ThrottledEngine(std::make_unique<CpuEngine>(config()), 0.0),
        ContractError);
    EXPECT_THROW(ThrottledEngine(std::make_unique<CpuEngine>(config()), 1.0,
                                 -0.1),
                 ContractError);
}

TEST(SimGpuEngine, UnpacedMatchesCpuScores) {
    const db::Database database = tiny_db();
    const align::Sequence q = query();
    CpuEngine cpu(config());
    SimGpuEngine gpu(config(), GpuDeviceModel{}, /*pace=*/false);
    EXPECT_EQ(gpu.kind(), core::PeKind::Gpu);
    const auto a = cpu.execute(q, 0, 0, database, nullptr);
    const auto b = gpu.execute(q, 0, 0, database, nullptr);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t i = 0; i < a.hits.size(); ++i) {
        EXPECT_EQ(a.hits[i], b.hits[i]);
    }
}

TEST(SimGpuEngine, OccupancyCurveShape) {
    const GpuDeviceModel m{};
    // Small databases deliver well under peak; SwissProt-sized nearly
    // peak; monotone in between.
    EXPECT_LT(m.effective_gcups(18'000'000), 0.55 * m.peak_gcups);
    EXPECT_GT(m.effective_gcups(190'000'000), 0.85 * m.peak_gcups);
    EXPECT_LT(m.effective_gcups(10'000'000),
              m.effective_gcups(100'000'000));
}

}  // namespace
}  // namespace swh::engines
