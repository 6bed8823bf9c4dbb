// Steady-state allocation audit for the scan hot path. This test binary
// replaces the global allocation functions with counting versions
// (which is why it is its own test target): once a worker's ScanScratch
// has warmed up to the largest subject, StripedAligner::score() and the
// DatabaseScanner two-pass loop must not touch the heap at all, and a
// warm CpuEngine allocates no large block per task but the query's
// inter-sequence profile.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "align/db_scan.hpp"
#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "db/database.hpp"
#include "db/generator.hpp"
#include "db/packed.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/topk.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

// Sizes of the allocations of at least kBigAlloc bytes made while
// g_record_big is set (see big_allocations); a fixed array, because the
// allocation functions must not allocate.
constexpr std::size_t kBigAlloc = 32 * 1024;
std::atomic<bool> g_record_big{false};
std::array<std::size_t, 64> g_big_sizes{};
std::atomic<std::size_t> g_big_count{0};

void* counted_alloc(std::size_t size, std::size_t align) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size >= kBigAlloc && g_record_big.load(std::memory_order_relaxed)) {
        const std::size_t i =
            g_big_count.fetch_add(1, std::memory_order_relaxed);
        if (i < g_big_sizes.size()) g_big_sizes[i] = size;
    }
    void* p = nullptr;
    if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                       size == 0 ? 1 : size) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 16); }
void* operator new[](std::size_t size) { return counted_alloc(size, 16); }
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace swh::align {
namespace {

db::Database alloc_test_db() {
    db::DatabaseSpec spec;
    spec.name = "alloc";
    spec.num_sequences = 50;
    spec.length.min_len = 20;
    spec.length.max_len = 400;
    spec.seed = 51;
    return db::Database::generate(spec);
}

/// The sorted sizes of the allocations of at least kBigAlloc bytes that
/// `run` makes.
template <class Fn>
std::vector<std::size_t> big_allocations(Fn&& run) {
    g_big_count.store(0, std::memory_order_relaxed);
    g_record_big.store(true, std::memory_order_relaxed);
    run();
    g_record_big.store(false, std::memory_order_relaxed);
    const std::size_t n = g_big_count.load(std::memory_order_relaxed);
    EXPECT_LE(n, g_big_sizes.size()) << "too many large allocations to list";
    std::vector<std::size_t> sizes(
        g_big_sizes.begin(),
        g_big_sizes.begin() +
            static_cast<std::ptrdiff_t>(std::min(n, g_big_sizes.size())));
    std::sort(sizes.begin(), sizes.end());
    return sizes;
}

/// 128 subjects of 320-400 residues: at every cohort width (16, 32 or
/// 64 lanes) the cohorts are whole and each is filled past the longest
/// queries' 75% bar, so every cohort routes inter-sequence.
db::Database interseq_only_db() {
    db::DatabaseSpec spec;
    spec.name = "interseq-only";
    spec.num_sequences = 128;
    spec.length.min_len = 320;
    spec.length.max_len = 400;
    spec.seed = 57;
    return db::Database::generate(spec);
}

engines::EngineConfig engine_config(const ScoreMatrix& matrix) {
    engines::EngineConfig c;
    c.matrix = &matrix;
    c.gap = {10, 2};
    c.top_k = 10;
    c.isa = simd::best_supported();
    return c;
}

TEST(ScanAllocation, ScoreIsAllocationFreeInSteadyState) {
    const db::Database database = alloc_test_db();
    Rng rng(52);
    const Sequence q = db::random_protein(rng, 200, "q");
    const ScoreMatrix matrix = ScoreMatrix::blosum62();
    const StripedAligner aligner(q.residues, matrix, {10, 2});

    // Warm-up pass grows the thread-local scratch to the largest subject.
    Score warm = 0;
    for (const auto& s : database.sequences()) {
        warm = std::max(warm, aligner.score(s.residues));
    }

    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    Score best = 0;
    for (int rep = 0; rep < 3; ++rep) {
        for (const auto& s : database.sequences()) {
            best = std::max(best, aligner.score(s.residues));
        }
    }
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "score() allocated in steady state";
    EXPECT_EQ(best, warm);
}

TEST(ScanAllocation, ScannerPass1IsAllocationFreeAfterWarmup) {
    const db::Database database = alloc_test_db();
    Rng rng(53);
    const Sequence q = db::random_protein(rng, 120, "q");
    const ScoreMatrix matrix = ScoreMatrix::blosum62();
    const StripedAligner aligner(q.residues, matrix, {10, 2});
    const db::PackedDatabase& packed = database.packed();

    DatabaseScanner scanner(aligner, packed.view());
    ScanScratch scratch;
    // Warm-up: run one full scan (grows the scratch and its lists).
    scanner.run_worker(scratch,
                       [](std::uint32_t, std::uint32_t, Score) { return true; });

    // Steady state: per-subject scoring through a warm scratch must not
    // allocate.
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    Score best = 0;
    for (std::size_t i = 0; i < packed.size(); ++i) {
        const StripedResult r =
            aligner.score_u8(packed.subject(i), scratch, /*trusted=*/true);
        ASSERT_FALSE(r.overflow);
        best = std::max(best, r.score);
    }
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "pass-1 scan allocated in steady state";
    EXPECT_GT(best, 0);
}

TEST(ScanAllocation, TopKAddNeverAllocates) {
    // The collector reserves its full trim window (2k + 16) up front,
    // so the per-subject add() path never grows the vector — trims
    // shrink it back before capacity is reached.
    engines::TopK topk(10);
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < 10'000; ++i) {
        topk.add(i, static_cast<Score>(i % 997));
    }
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "TopK::add allocated";
}

TEST(ScanAllocation, EnginePathIsAllocationFreeAfterWarmup) {
    // The engine's per-subject path — cohort-mode scanner emit into a
    // TopK collector — end to end, including the inter-sequence kernel
    // through a warm scratch.
    const db::Database database = alloc_test_db();
    Rng rng(54);
    const Sequence q = db::random_protein(rng, 150, "q");
    const ScoreMatrix matrix = ScoreMatrix::blosum62();
    const StripedAligner aligner(q.residues, matrix, {10, 2});
    const db::PackedDatabase& packed = database.packed();

    DatabaseScanner scanner(
        aligner, packed.view(), DatabaseScanner::kDefaultChunk,
        packed.interleaved(lanes_u8(aligner.isa())).view());
    ASSERT_TRUE(scanner.cohort_mode());
    ScanScratch scratch;
    engines::TopK topk(10);
    // Warm-up scan grows the scratch to the largest cohort.
    scanner.run_worker(scratch,
                       [&](std::uint32_t idx, std::uint32_t, Score s) {
                           topk.add(idx, s);
                           return true;
                       });

    scanner.reset();
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    std::size_t emitted = 0;
    const bool completed = scanner.run_worker(
        scratch, [&](std::uint32_t idx, std::uint32_t, Score s) {
            topk.add(idx, s);
            ++emitted;
            return true;
        });
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_TRUE(completed);
    EXPECT_EQ(emitted, database.size());
    EXPECT_EQ(after, before) << "engine scan path allocated in steady state";
}

TEST(ScanAllocation, FunnelDrainIsAllocationFreeAfterWarmup) {
    // The armed funnel with a planted family: the probe finds the
    // mutants hot and holds them until they can seed the threshold, the
    // stage-3 drain settles them — banded seed, column-cap suffix,
    // bound-pruned i16 pass — and the threshold then prunes the
    // background. The deferred batch, the drain's repack and the parked
    // cohorts live in the worker's ScanScratch, so a warm worker runs
    // the second scan without touching the heap.
    Rng rng(55);
    const Sequence q = db::random_protein(rng, 300, "q");
    db::Database background = alloc_test_db();
    std::vector<Sequence> seqs = background.sequences();
    const db::MutationModel model{0.15, 0.01, 0.01};
    for (int i = 0; i < 12; ++i) {
        seqs.push_back(db::mutate(q, Alphabet::protein(), model, rng));
    }
    const db::Database database("alloc-family", std::move(seqs));
    const ScoreMatrix matrix = ScoreMatrix::blosum62();
    const StripedAligner aligner(q.residues, matrix, {10, 2});
    const db::PackedDatabase& packed = database.packed();
    const InterleavedCohorts cohorts =
        packed.interleaved(lanes_u8(aligner.isa())).view();
    constexpr std::size_t kTop = 10;

    ScanScratch scratch;
    const auto scan = [&](DatabaseScanner& scanner, std::atomic<Score>& tau,
                          engines::TopK& topk, std::size_t& settled) {
        return scanner.run_worker(
            scratch,
            [&](std::uint32_t idx, std::uint32_t, Score s) {
                topk.add(idx, s);
                ++settled;
                const Score kth = topk.kth_score();
                if (kth > tau.load(std::memory_order_relaxed)) {
                    tau.store(kth, std::memory_order_relaxed);
                }
                return true;
            },
            [](std::uint32_t, std::uint32_t) { return true; });
    };
    // Warm-up scan grows the scratch and the funnel lists.
    std::atomic<Score> warm_tau{engines::TopK::kNoThreshold};
    DatabaseScanner warm(aligner, packed.view(),
                         DatabaseScanner::kDefaultChunk, cohorts,
                         {&warm_tau, kTop});
    engines::TopK warm_topk(kTop);
    std::size_t warm_settled = 0;
    ASSERT_TRUE(scan(warm, warm_tau, warm_topk, warm_settled));

    std::atomic<Score> tau{engines::TopK::kNoThreshold};
    DatabaseScanner scanner(aligner, packed.view(),
                            DatabaseScanner::kDefaultChunk, cohorts,
                            {&tau, kTop});
    engines::TopK topk(kTop);
    std::size_t settled = 0;
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const bool completed = scan(scanner, tau, topk, settled);
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_TRUE(completed);
    EXPECT_EQ(after, before) << "funnel drain path allocated in steady state";

    const DatabaseScanner::Stats st = scanner.stats();
    EXPECT_GT(st.subjects_hot, 0u);
    EXPECT_GT(st.escalations16, 0u);
    EXPECT_GT(st.drain_columns_skipped, 0u);
    EXPECT_GT(st.subjects_pruned, 0u);
    EXPECT_EQ(settled, warm_settled);
    EXPECT_EQ(topk.take(), warm_topk.take());
}

TEST(ScanAllocation, WarmEngineAllocatesOnlyTheQueryProfile) {
    // A CpuEngine keeps its worker's scratch across tasks, and a scan
    // whose cohorts all route inter-sequence never builds the striped
    // profiles. So once the engine has run the longest query, a task's
    // only large allocation is its query's inter-sequence profile: no
    // scratch regrowth, no striped u8 or i16 profile (each over 32 KiB
    // at this query length).
    const db::Database database = interseq_only_db();
    Rng rng(58);
    const Sequence longest = db::random_protein(rng, 2000, "longest");
    const Sequence q = db::random_protein(rng, 1500, "q");
    const ScoreMatrix matrix = ScoreMatrix::blosum62();
    obs::MetricsRegistry metrics;
    engines::EngineConfig config = engine_config(matrix);
    config.metrics = &metrics;
    engines::CpuEngine engine(config);
    engine.execute(longest, 0, 0, database, nullptr);

    const std::vector<std::size_t> profile = big_allocations(
        [&] { (void)build_interseq_profile(q.residues, matrix); });
    ASSERT_FALSE(profile.empty());
    core::TaskResult r;
    const std::vector<std::size_t> task =
        big_allocations([&] { r = engine.execute(q, 1, 1, database, nullptr); });
    EXPECT_EQ(task, profile);

    EXPECT_EQ(r.cells, q.size() * database.residues());
    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_GT(snap.counter("scan.dispatch.cohorts_interseq"), 0u);
    EXPECT_EQ(snap.counter("scan.dispatch.cohorts_striped_head"), 0u);
    EXPECT_EQ(snap.counter("scan.dispatch.subjects_striped"), 0u);
}

TEST(ScanAllocation, StripedRouteCohortStillGetsItsProfile) {
    // Five short subjects behind the whole cohorts make a tail cohort
    // far below the fill bar: its subjects take the striped route, which
    // builds the striped profile on first use. Every score the engine
    // emits must match the scalar oracle.
    std::vector<Sequence> seqs = interseq_only_db().sequences();
    Rng rng(59);
    for (int i = 0; i < 5; ++i) {
        seqs.push_back(db::random_protein(rng, 60, "tail"));
    }
    const db::Database database("interseq+tail", std::move(seqs));
    const Sequence q = db::random_protein(rng, 500, "q");
    const ScoreMatrix matrix = ScoreMatrix::blosum62();
    obs::MetricsRegistry metrics;
    engines::EngineConfig config = engine_config(matrix);
    config.metrics = &metrics;
    config.prefilter = false;
    config.top_k = database.size();
    const core::TaskResult r =
        engines::CpuEngine(config).execute(q, 0, 0, database, nullptr);

    EXPECT_GT(metrics.snapshot().counter("scan.dispatch.subjects_striped"),
              0u);
    ASSERT_EQ(r.hits.size(), database.size());
    for (const core::Hit& h : r.hits) {
        EXPECT_EQ(h.score, sw_score_affine(q.residues,
                                           database[h.db_index].residues,
                                           matrix, config.gap))
            << "subject " << h.db_index;
    }
}

}  // namespace
}  // namespace swh::align
