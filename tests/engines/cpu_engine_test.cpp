#include "engines/cpu_engine.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

#include <atomic>
#include <set>
#include <string>

#include "align/sw_scalar.hpp"
#include "db/database.hpp"
#include "db/presets.hpp"
#include "obs/metrics.hpp"

namespace swh::engines {
namespace {

const align::ScoreMatrix& blosum() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

EngineConfig config(std::uint64_t grain = 1'000'000) {
    EngineConfig c;
    c.matrix = &blosum();
    c.gap = {10, 2};
    c.top_k = 5;
    c.isa = simd::best_supported();
    c.progress_grain = grain;
    return c;
}

db::Database small_db(std::size_t n = 40, std::uint64_t seed = 1) {
    db::DatabaseSpec spec;
    spec.name = "test";
    spec.num_sequences = n;
    spec.length.min_len = 20;
    spec.length.max_len = 200;
    spec.seed = seed;
    return db::Database::generate(spec);
}

align::Sequence query(std::size_t len = 80, std::uint64_t seed = 2) {
    Rng rng(seed);
    return db::random_protein(rng, len, "q");
}

TEST(CpuEngine, ScoresMatchOracle) {
    CpuEngine engine(config());
    const db::Database database = small_db();
    const align::Sequence q = query();
    const core::TaskResult r = engine.execute(q, 0, 0, database, nullptr);
    EXPECT_EQ(r.cells, q.size() * database.residues());
    ASSERT_EQ(r.hits.size(), 5u);
    // Every reported hit must carry the exact oracle score.
    for (const core::Hit& h : r.hits) {
        EXPECT_EQ(h.score,
                  align::sw_score_affine(q.residues,
                                         database[h.db_index].residues,
                                         blosum(), {10, 2}));
    }
    // Hits are the true top-5: no other subject scores above the last.
    for (std::size_t i = 0; i < database.size(); ++i) {
        const align::Score s = align::sw_score_affine(
            q.residues, database[i].residues, blosum(), {10, 2});
        bool in_hits = false;
        for (const core::Hit& h : r.hits) in_hits |= (h.db_index == i);
        if (!in_hits) {
            EXPECT_LE(s, r.hits.back().score);
        }
    }
}

TEST(CpuEngine, MultiThreadMatchesSingleThread) {
    const db::Database database = small_db(60, 5);
    const align::Sequence q = query(120, 6);
    CpuEngine one(config(), 1);
    CpuEngine four(config(), 4);
    const auto r1 = one.execute(q, 0, 0, database, nullptr);
    const auto r4 = four.execute(q, 0, 0, database, nullptr);
    EXPECT_EQ(r1.cells, r4.cells);
    ASSERT_EQ(r1.hits.size(), r4.hits.size());
    for (std::size_t i = 0; i < r1.hits.size(); ++i) {
        EXPECT_EQ(r1.hits[i], r4.hits[i]);
    }
}

TEST(CpuEngine, PrefilterOnAndOffReturnIdenticalHits) {
    // The funnel's whole contract at engine level: arming the ungapped
    // prefilter changes how much exact work runs, never the hits. Use a
    // planted-family sample so the prefilter genuinely prunes, and both
    // thread counts so the racing threshold is covered too.
    const db::ScanSample sample = db::make_scan_sample(250, {90});
    EngineConfig on = config();
    EngineConfig off = config();
    off.prefilter = false;
    for (const unsigned threads : {1u, 4u}) {
        const auto with = CpuEngine(on, threads)
                              .execute(sample.queries[0], 0, 0,
                                       sample.database, nullptr);
        const auto without = CpuEngine(off, threads)
                                 .execute(sample.queries[0], 0, 0,
                                          sample.database, nullptr);
        ASSERT_EQ(with.hits.size(), without.hits.size());
        for (std::size_t i = 0; i < with.hits.size(); ++i) {
            EXPECT_EQ(with.hits[i], without.hits[i])
                << "threads=" << threads << " rank " << i;
        }
        // Pruned subjects still count their cells, so progress totals
        // and the result's cell count stay the full product.
        EXPECT_EQ(with.cells, without.cells);
    }
}

TEST(CpuEngine, ExportsOneMetricNamePerScanFact) {
    // Metric-name contract: one prefilter-on task exports exactly these
    // scan/engine names — among them the ones perfbench and the --watch
    // dashboard read — and no second spelling of the same fact.
    const db::ScanSample sample = db::make_scan_sample(250, {90});
    obs::MetricsRegistry metrics;
    EngineConfig c = config();
    c.metrics = &metrics;
    CpuEngine(c).execute(sample.queries[0], 0, 0, sample.database, nullptr);
    const obs::MetricsSnapshot snap = metrics.snapshot();

    std::set<std::string> names;
    const auto keep = [&](const std::string& name) {
        if (name.rfind("scan.", 0) == 0 || name.rfind("engine.cpu.", 0) == 0) {
            names.insert(name);
        }
    };
    for (const auto& [name, value] : snap.counters) keep(name);
    for (const auto& [name, value] : snap.gauges) keep(name);
    for (const obs::HistogramSummary& h : snap.histograms) keep(h.name);
    const std::set<std::string> want = {
        "engine.cpu.runs8",
        "engine.cpu.runs16",
        "engine.cpu.runs32",
        "engine.cpu.filter.tau",
        "engine.cpu.filter.cohorts",
        "engine.cpu.filter.pruned",
        "engine.cpu.filter.hot",
        "engine.cpu.filter.parked",
        "engine.cpu.filter.saturated",
        "engine.cpu.filter.tiles",
        "engine.cpu.filter.tiles_skipped",
        "engine.cpu.drain.columns",
        "engine.cpu.drain.columns_skipped",
        "scan.dispatch.cohorts_interseq",
        "scan.dispatch.cohorts_striped_head",
        "scan.dispatch.escalations16",
        "scan.dispatch.subjects_interseq",
        "scan.dispatch.subjects_striped",
    };
    EXPECT_EQ(names, want);
    // Every subject is either pruned, hot (settled by the wide drain)
    // or scored on one route.
    EXPECT_GT(snap.counter("engine.cpu.filter.pruned"), 0u);
    EXPECT_EQ(snap.counter("engine.cpu.filter.pruned") +
                  snap.counter("engine.cpu.filter.hot") +
                  snap.counter("scan.dispatch.subjects_interseq") +
                  snap.counter("scan.dispatch.subjects_striped"),
              sample.database.size());
}

class CountingObserver final : public ExecutionObserver {
public:
    void on_cells(std::uint64_t delta) override {
        cells_ += delta;
        ++calls_;
    }
    std::uint64_t cells() const { return cells_; }
    int calls() const { return calls_; }

private:
    std::uint64_t cells_ = 0;
    int calls_ = 0;
};

TEST(CpuEngine, ReportsAllCellsThroughObserver) {
    CpuEngine engine(config(/*grain=*/50'000));
    const db::Database database = small_db();
    const align::Sequence q = query();
    CountingObserver obs;
    const auto r = engine.execute(q, 0, 0, database, &obs);
    EXPECT_EQ(obs.cells(), r.cells);
    EXPECT_GT(obs.calls(), 1);  // grain forces multiple notifications
}

class CancelAfter final : public ExecutionObserver {
public:
    explicit CancelAfter(int limit) : limit_(limit) {}
    bool cancelled() const override { return polls_.fetch_add(1) >= limit_; }

private:
    mutable std::atomic<int> polls_{0};
    int limit_;
};

TEST(CpuEngine, CancellationStopsEarly) {
    CpuEngine engine(config());
    const db::Database database = small_db(100, 7);
    const align::Sequence q = query();
    CancelAfter obs(10);
    const auto r = engine.execute(q, 0, 0, database, &obs);
    EXPECT_LT(r.cells, q.size() * database.residues());
}

TEST(CpuEngine, WarmScratchNeverReachesAResult) {
    // One engine keeps its workers' scratch across calls; no result may
    // depend on it. Run query A, then a longer query B cancelled
    // mid-scan (the losing replica's path: the funnel lists are left
    // mid-use), then A again, then a query against a second database,
    // and match each against a fresh engine's.
    const db::ScanSample sample = db::make_scan_sample(250, {90, 300});
    const align::Sequence& a = sample.queries[0];
    const align::Sequence& b = sample.queries[1];
    const db::Database other = small_db(70, 13);
    const align::Sequence c = query(150, 14);
    for (const unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        const auto fresh = [&](const align::Sequence& q,
                               const db::Database& database,
                               ExecutionObserver* observer = nullptr) {
            return CpuEngine(config(), threads)
                .execute(q, 0, 0, database, observer);
        };
        const auto expect_same = [](const core::TaskResult& got,
                                    const core::TaskResult& want) {
            EXPECT_EQ(got.cells, want.cells);
            EXPECT_EQ(got.hits, want.hits);
        };
        CpuEngine warm(config(), threads);
        const core::TaskResult a_fresh = fresh(a, sample.database);
        expect_same(warm.execute(a, 0, 0, sample.database, nullptr),
                    a_fresh);

        CancelAfter stop_warm(100);
        const core::TaskResult b_cut =
            warm.execute(b, 0, 0, sample.database, &stop_warm);
        EXPECT_LT(b_cut.cells, b.size() * sample.database.residues());
        if (threads == 1) {
            // One worker polls in a fixed order, so the cut lands at the
            // same subject on a fresh engine.
            CancelAfter stop_fresh(100);
            expect_same(b_cut, fresh(b, sample.database, &stop_fresh));
        }

        expect_same(warm.execute(a, 0, 0, sample.database, nullptr),
                    a_fresh);
        expect_same(warm.execute(c, 0, 0, other, nullptr), fresh(c, other));
    }
}

TEST(CpuEngine, TopKSmallerThanDatabase) {
    EngineConfig c = config();
    c.top_k = 1000;  // more than sequences available
    CpuEngine engine(c);
    const db::Database database = small_db(10, 9);
    const auto r = engine.execute(query(), 0, 0, database, nullptr);
    EXPECT_EQ(r.hits.size(), 10u);
}

TEST(CpuEngine, PropagatesTaskIdentity) {
    CpuEngine engine(config());
    const db::Database database = small_db(5, 11);
    const auto r = engine.execute(query(), 7, 42, database, nullptr);
    EXPECT_EQ(r.query_index, 7u);
    EXPECT_EQ(r.task, 42u);
}

TEST(CpuEngine, RequiresMatrix) {
    EngineConfig c;
    c.matrix = nullptr;
    EXPECT_THROW(CpuEngine{c}, ContractError);
}

}  // namespace
}  // namespace swh::engines
