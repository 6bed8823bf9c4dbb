// Golden equivalence of the three-stage funnel scan (ungapped prefilter
// + exact rescore) against the exhaustive scan: the surviving top-k
// must be BIT-identical at every ISA tier and width this host has, every
// k, and the adversarial shapes that stress the threshold policy —
// all-identical scores, ties exactly at the threshold, empty and tiny
// databases, k larger than the database — plus concurrency tests with
// cohort-mode claiming and a shared rising threshold, and one test per
// path of the stage-1 probe (hot lanes held until they can seed the
// threshold, parking, the parked walk).
//
// The suite name starts with "DatabaseScanner" so the CI TSan job's
// test filter picks it up alongside the plain scanner suite.

#include "align/db_scan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "align/sw_scalar.hpp"
#include "db/database.hpp"
#include "db/generator.hpp"
#include "db/packed.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/topk.hpp"
#include "util/rng.hpp"
#include "tier_widths.hpp"

namespace swh::align {
namespace {

const ScoreMatrix& blosum() {
    static const ScoreMatrix m = ScoreMatrix::blosum62();
    return m;
}

constexpr GapPenalty kGap{10, 2};

/// Exhaustive oracle: cohort-mode scan with the prefilter unarmed,
/// every score routed through the same TopK policy the funnel uses.
std::vector<core::Hit> exhaustive_topk(
    const StripedAligner& aligner, const db::Database& database,
    std::size_t k, DatabaseScanner::Stats* stats = nullptr) {
    const db::PackedDatabase& packed = database.packed();
    DatabaseScanner scanner(
        aligner, packed.view(), DatabaseScanner::kDefaultChunk,
        packed.interleaved(lanes_u8(aligner.isa())).view());
    engines::TopK topk(k);
    ScanScratch scratch;
    EXPECT_TRUE(scanner.run_worker(
        scratch, [&](std::uint32_t idx, std::uint32_t, Score s) {
            topk.add(idx, s);
            return true;
        }));
    if (stats != nullptr) *stats = scanner.stats();
    return topk.take();
}

struct FunnelRun {
    std::vector<core::Hit> hits;
    DatabaseScanner::Stats stats;
    std::uint64_t emitted = 0;
    std::uint64_t pruned_calls = 0;
    std::vector<std::uint32_t> settled;  ///< db indices exact-scored
    std::vector<std::uint32_t> pruned;   ///< db indices reported pruned
};

/// Funnel scan: prefilter armed with the running k-th best fed back
/// through a CAS-max, exactly like engines::CpuEngine does. A positive
/// `tau0` starts the feed there instead of at kNoThreshold — sound for
/// any value up to the final k-th best exact score.
FunnelRun funnel_topk(const StripedAligner& aligner,
                      const db::Database& database, std::size_t k,
                      Score tau0 = engines::TopK::kNoThreshold) {
    const db::PackedDatabase& packed = database.packed();
    std::atomic<Score> tau{tau0};
    DatabaseScanner scanner(
        aligner, packed.view(), DatabaseScanner::kDefaultChunk,
        packed.interleaved(lanes_u8(aligner.isa())).view(), {&tau, k});
    engines::TopK topk(k);
    FunnelRun run;
    ScanScratch scratch;
    EXPECT_TRUE(scanner.run_worker(
        scratch,
        [&](std::uint32_t idx, std::uint32_t, Score s) {
            topk.add(idx, s);
            ++run.emitted;
            run.settled.push_back(idx);
            const Score kth = topk.kth_score();
            Score cur = tau.load(std::memory_order_relaxed);
            while (kth > cur && !tau.compare_exchange_weak(
                                    cur, kth, std::memory_order_relaxed)) {
            }
            return true;
        },
        [&](std::uint32_t idx, std::uint32_t) {
            ++run.pruned_calls;
            run.pruned.push_back(idx);
            return true;
        }));
    run.hits = topk.take();
    run.stats = scanner.stats();
    return run;
}

void expect_same_hits(const std::vector<core::Hit>& got,
                      const std::vector<core::Hit>& want,
                      const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].db_index, want[i].db_index)
            << label << " rank " << i;
        EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
    }
}

TEST(DatabaseScannerFunnel, TopKBitIdenticalAcrossIsaLevelsAndK) {
    // Planted-family database: background noise plus homologs of the
    // query, the shape the funnel is built for — the family feeds the
    // threshold and the background gets pruned.
    const db::ScanSample sample = db::make_scan_sample(300, {100});
    std::uint64_t total_pruned = 0;
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(sample.queries[0].residues, blosum(),
                                     kGap, isa);
        for (const std::size_t k : {std::size_t{1}, std::size_t{10},
                                    std::size_t{100}}) {
            const std::vector<core::Hit> want =
                exhaustive_topk(aligner, sample.database, k);
            ASSERT_EQ(want.size(), k);
            const FunnelRun run = funnel_topk(aligner, sample.database, k);
            expect_same_hits(run.hits, want,
                             "isa=" + std::string(simd::to_string(isa)) +
                                 " k=" + std::to_string(k));
            // Accounting: every subject is either settled or reported
            // pruned, exactly once.
            EXPECT_EQ(run.emitted + run.pruned_calls,
                      sample.database.size());
            EXPECT_EQ(run.pruned_calls, run.stats.subjects_pruned);
            total_pruned += run.stats.subjects_pruned;
        }
    }
    // The funnel must actually funnel on this workload, not just match.
    EXPECT_GT(total_pruned, 0u);
}

TEST(DatabaseScannerFunnel, LongQueryTiledSparseSurvivorsBitIdentical) {
    // A multi-tile query drives the query-tiled inter-sequence kernels
    // and the tile-sum prefilter, and cohorts the armed prefilter thins
    // out to a few survivors still run the full-width u8 kernel, their
    // pruned lanes masked. That path must keep the funnel's
    // bit-identity promise — and must actually be exercised, not
    // silently skipped.
    //
    // Sparse cohorts need the prefilter to thin them to a quarter or
    // less: one homolog (a background subject carrying a verbatim
    // 40-residue window of the query, scoring far above the rest) per
    // ~6 background subjects, with the background's length profile, so
    // most length-sorted cohorts keep a few homolog lanes and lose the
    // rest. Two tiles keep the summed bound tight enough to prune.
    Rng rng(401);
    const Sequence q =
        db::random_protein(rng, kInterseqTileRows + 53, "long");
    db::DatabaseSpec spec;
    spec.name = "sparse";
    spec.num_sequences = 1000;
    spec.length.min_len = 40;
    spec.length.max_len = 160;
    spec.length.log_mean = 4.6;  // ~100 residues, mid-range
    spec.seed = 403;
    std::vector<Sequence> seqs = db::generate_database(spec);
    constexpr std::size_t kWindow = 40;
    const std::size_t background = seqs.size();
    for (int h = 0; h < 170; ++h) {
        // Same length profile as the background: a background copy with
        // one fixed query window written over it.
        Sequence s = seqs[rng.below(background)];
        s.id = "hom" + std::to_string(h);
        const std::size_t to = rng.below(s.size() - kWindow + 1);
        std::copy_n(q.residues.begin() + 100, kWindow,
                    s.residues.begin() + static_cast<std::ptrdiff_t>(to));
        seqs.push_back(std::move(s));
    }
    const db::Database database("sparse", std::move(seqs));

    // Coverage is asserted in aggregate: how many homologs share a
    // cohort depends on the lane count, but the levels together must
    // prove the sparse interseq path ran.
    std::uint64_t interseq_cohorts = 0, sparse_cohorts = 0, pruned = 0;
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const auto w = static_cast<std::size_t>(lanes_u8(isa));
        const auto order = database.packed().scan_order();
        std::vector<std::size_t> slot_of(database.size());
        for (std::size_t slot = 0; slot < order.size(); ++slot) {
            slot_of[order[slot]] = slot;
        }
        for (const std::size_t k : {std::size_t{1}, std::size_t{25}}) {
            const std::vector<core::Hit> want =
                exhaustive_topk(aligner, database, k);
            ASSERT_EQ(want.size(), k);
            const FunnelRun run = funnel_topk(aligner, database, k);
            expect_same_hits(run.hits, want,
                             "isa=" + std::string(simd::to_string(isa)) +
                                 " k=" + std::to_string(k));
            EXPECT_EQ(run.emitted + run.pruned_calls, database.size());
            EXPECT_EQ(run.pruned_calls, run.stats.subjects_pruned);
            // Every subject settles on exactly one of the two routes
            // or is pruned — no double counting, no loss.
            EXPECT_EQ(run.stats.subjects_interseq +
                          run.stats.subjects_striped +
                          run.stats.subjects_pruned,
                      database.size());
            // No cohort falls below the fill bar, and however few lanes
            // survive, the survivors stay on the interseq route.
            EXPECT_EQ(run.stats.subjects_striped, 0u);
            EXPECT_GT(run.stats.cohorts_interseq, 0u);
            // Cohort c holds scan slots [c*w, c*w + w): count the
            // cohorts thinned to a quarter of their lanes or less.
            const std::size_t cohorts = (database.size() + w - 1) / w;
            std::vector<std::size_t> kept(cohorts, 0), gone(cohorts, 0);
            for (const std::uint32_t idx : run.settled) {
                ++kept[slot_of[idx] / w];
            }
            for (const std::uint32_t idx : run.pruned) {
                ++gone[slot_of[idx] / w];
            }
            for (std::size_t c = 0; c < cohorts; ++c) {
                if (kept[c] > 0 && gone[c] > 0 &&
                    4 * kept[c] <= kept[c] + gone[c]) {
                    ++sparse_cohorts;
                }
            }
            interseq_cohorts += run.stats.cohorts_interseq;
            pruned += run.stats.subjects_pruned;
        }
    }
    EXPECT_GT(interseq_cohorts, 0u);
    EXPECT_GT(pruned, 0u);
    EXPECT_GT(sparse_cohorts, 0u);
}

TEST(DatabaseScannerFunnel, LowFillOutlierCohortTakesStripedRoute) {
    // One 2000-residue outlier carrying the query, over 33 subjects of
    // 50 residues: at every width the outlier leads a cohort far below
    // the fill bar, so that cohort is scored per subject by the striped
    // kernel (the outlier overflowing u8 into the drain). Exhaustive
    // and funnel top-k must both be the scalar oracle's.
    Rng rng(461);
    const Sequence q = db::random_protein(rng, 150, "q");
    std::vector<Sequence> seqs;
    Sequence outlier = db::random_protein(rng, 2000, "outlier");
    std::copy(q.residues.begin(), q.residues.end(),
              outlier.residues.begin() + 900);
    seqs.push_back(std::move(outlier));
    for (int i = 0; i < 33; ++i) {
        seqs.push_back(db::random_protein(rng, 50, "bg" + std::to_string(i)));
    }
    const db::Database database("outlier", std::move(seqs));
    constexpr std::size_t kTopK = 5;
    engines::TopK oracle(kTopK);
    for (std::size_t i = 0; i < database.size(); ++i) {
        oracle.add(static_cast<std::uint32_t>(i),
                   sw_score_affine(q.residues, database[i].residues, blosum(),
                                   kGap));
    }
    const std::vector<core::Hit> want = oracle.take();
    ASSERT_EQ(want.front().db_index, 0u);
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        DatabaseScanner::Stats exhaustive;
        expect_same_hits(exhaustive_topk(aligner, database, kTopK, &exhaustive),
                         want, label + " exhaustive");
        EXPECT_GT(exhaustive.cohorts_striped, 0u) << label;
        expect_same_hits(funnel_topk(aligner, database, kTopK).hits, want,
                         label + " funnel");
    }
}

TEST(DatabaseScannerFunnel, BatchedEscalationBitIdentical) {
    // Every member of the query's planted family overflows u8, and the
    // family's near-equal lengths put them in few cliff groups, so the
    // stage-3 drain settles them with dense i16 inter-sequence passes
    // (escalations16) — in the exhaustive scan's end-of-run drain and
    // in the funnel's per-claim drain alike.
    const db::ScanSample sample = db::make_scan_sample(300, {300});
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(sample.queries[0].residues, blosum(),
                                     kGap, isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        DatabaseScanner::Stats exhaustive;
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, sample.database, 10, &exhaustive);
        const FunnelRun run = funnel_topk(aligner, sample.database, 10);
        expect_same_hits(run.hits, want, label);
        EXPECT_GT(exhaustive.escalations16, 0u) << label;
        EXPECT_GT(run.stats.escalations16, 0u) << label;
    }
}

TEST(DatabaseScannerFunnel, SmallFamilyDrainsInOneInterseqPass) {
    // A family of 3 is a cliff group of a few lanes: the drain still
    // settles it with a dense i16 inter-sequence pass, at the narrowest
    // width that holds it, never one striped rescore per member. Every
    // wide settlement is a hot lane, and the top-k is the oracle's.
    constexpr std::size_t kFamily = 3;
    const db::ScanSample sample =
        db::make_scan_sample(300, {300}, kFamily, 457);
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(sample.queries[0].residues, blosum(),
                                     kGap, isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, sample.database, 10);
        const FunnelRun run = funnel_topk(aligner, sample.database, 10);
        expect_same_hits(run.hits, want, label);
        EXPECT_EQ(run.stats.subjects_hot, kFamily) << label;
        EXPECT_GT(run.stats.escalations16, 0u) << label;
        EXPECT_EQ(run.stats.settled16 + run.stats.settled32,
                  run.stats.subjects_hot)
            << label;
    }
}

TEST(DatabaseScannerFunnel, DrainSplitsGroupsWiderThanOneI16Vector) {
    // lanes_i16 + 5 equal-length copies of the query, longer than every
    // background subject, all overflow u8 and form one dense cliff run
    // of more lanes than one i16 vector holds: the drain must cut it
    // into at least two groups, and the top-k must still be the
    // oracle's in the exhaustive scan and in the funnel.
    Rng rng(461);
    const Sequence q = db::random_protein(rng, 300, "q");
    db::DatabaseSpec spec;
    spec.name = "background";
    spec.num_sequences = 200;
    spec.length.min_len = 40;
    spec.length.max_len = 250;
    spec.seed = 463;
    const std::vector<Sequence> background = db::generate_database(spec);
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const auto family = static_cast<std::size_t>(lanes_i16(isa)) + 5;
        std::vector<Sequence> seqs = background;
        seqs.insert(seqs.end(), family, q);
        const db::Database database("wide-family", std::move(seqs));
        engines::TopK oracle(10);
        for (std::size_t i = 0; i < database.size(); ++i) {
            oracle.add(static_cast<std::uint32_t>(i),
                       sw_score_affine(q.residues, database[i].residues,
                                       blosum(), kGap));
        }
        const std::vector<core::Hit> want = oracle.take();

        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        DatabaseScanner::Stats exhaustive;
        expect_same_hits(exhaustive_topk(aligner, database, 10, &exhaustive),
                         want, label + " exhaustive");
        const FunnelRun run = funnel_topk(aligner, database, 10);
        expect_same_hits(run.hits, want, label + " funnel");
        for (const DatabaseScanner::Stats& st : {exhaustive, run.stats}) {
            EXPECT_EQ(st.settled16 + st.settled32, family) << label;
            EXPECT_GE(st.escalations16, 2u) << label;
        }
    }
}

TEST(DatabaseScannerFunnel, NoHitLongQueryParksEveryCohort) {
    // The hetero_nohit shape: a random query with no planted family,
    // long enough for several prefilter tiles. No lane clips the probe
    // tile, so no threshold exists while the worker claims: every
    // cohort is parked with its first-tile bounds, the parked walk
    // exact-scores the first one to seed tau and resumes the rest at
    // their second tile — top-k unchanged.
    db::DatabaseSpec spec;
    spec.name = "nohit";
    spec.num_sequences = 700;
    spec.length.min_len = 40;
    spec.length.max_len = 300;
    spec.seed = 331;
    const db::Database database = db::Database::generate(spec);
    Rng rng(337);
    const Sequence q =
        db::random_protein(rng, 3 * kInterseqTileRows + 40, "nohit");
    ASSERT_GT(filter_tile_count(q.size()), 1u);
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, database, 10);
        const FunnelRun run = funnel_topk(aligner, database, 10);
        expect_same_hits(run.hits, want, label);
        EXPECT_EQ(run.emitted + run.pruned_calls, database.size()) << label;
        EXPECT_EQ(run.stats.subjects_hot, 0u) << label;
        EXPECT_EQ(run.stats.cohorts_parked,
                  database.packed()
                      .interleaved(lanes_u8(isa))
                      .view()
                      .count)
            << label;
        EXPECT_GT(run.stats.cohorts_parked, 0u) << label;
    }
}

TEST(DatabaseScannerFunnel, LongSubjectsStayInsideU8AndArePruned) {
    // A multi-tile query against long random subjects (3000-4600
    // residues) plus a planted family of more than k members. Every
    // background subject sits far below the family's k-th best score,
    // but a prefilter tile must also keep its random-background chain
    // bound inside u8 on such subjects: a lane that saturates carries
    // no bound and is exact-scored however low its true bound is. A
    // tile as tall as the exact kernels' (256 rows) saturates on most
    // of these lanes.
    constexpr std::size_t kFamily = 12;
    constexpr std::size_t kTopK = 10;
    const db::ScanSample sample = db::make_scan_sample(
        kFamily + 1, {4 * kInterseqTileRows + 6}, kFamily, 421);
    const Sequence& q = sample.queries[0];
    ASSERT_GE(q.size(), 4 * kInterseqTileRows);
    db::DatabaseSpec spec;
    spec.name = "long";
    spec.num_sequences = 80;
    spec.length.min_len = 3000;
    spec.length.max_len = 4600;
    spec.length.log_mean = 8.24;  // ~3800 residues
    spec.length.log_stdev = 0.12;
    spec.seed = 423;
    const std::vector<Sequence> background = db::generate_database(spec);
    std::vector<Sequence> seqs = background;
    const std::vector<Sequence>& planted = sample.database.sequences();
    seqs.insert(seqs.end(), planted.end() - kFamily, planted.end());
    const db::Database database("long+family", std::move(seqs));
    const db::Database background_only("long", background);
    // One exhaustive oracle for every level: the exact kernels match
    // the scalar reference on each level (striped and interseq suites).
    const std::vector<core::Hit> want = exhaustive_topk(
        StripedAligner(q.residues, blosum(), kGap, simd::best_supported()),
        database, kTopK);
    ASSERT_EQ(want.size(), kTopK);
    const Score kth = want.back().score;

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));

        // The running feed, as CpuEngine wires it: bit-identical top-k,
        // and every background subject is pruned — the family clips its
        // probe tile and sets tau before any background lane is
        // decided, whether its cohort was claimed before or after.
        const FunnelRun run = funnel_topk(aligner, database, kTopK);
        expect_same_hits(run.hits, want, label);
        const auto background_pruned = static_cast<std::size_t>(
            std::count_if(run.pruned.begin(), run.pruned.end(),
                          [&](std::uint32_t idx) {
                              return idx < background.size();
                          }));
        EXPECT_EQ(background_pruned, background.size()) << label;

        // With tau at the final k-th best from the first cohort on,
        // no cohort is probed: every background lane must get a full
        // sweep's bound below tau, none saturated.
        const FunnelRun settled = funnel_topk(aligner, background_only,
                                              kTopK, kth);
        EXPECT_EQ(settled.stats.subjects_pruned, background.size()) << label;
        EXPECT_EQ(settled.stats.subjects_saturated, 0u) << label;
        EXPECT_EQ(settled.emitted, 0u) << label;
    }
}

TEST(DatabaseScannerFunnel, SaturatedLanesSurviveAndAreCounted) {
    // Copies of the query are self-matches: their chain bound clips
    // u8 in the query's one prefilter tile, so the clipped sum sits far
    // below tau (the copies' own exact score). Each such lane must
    // survive stage 1, be counted as saturated, and settle exactly.
    Rng rng(431);
    const Sequence q = db::random_protein(rng, 100, "q");
    ASSERT_EQ(filter_tile_count(q.size()), 1u);
    db::DatabaseSpec spec;
    spec.name = "selfmatch";
    spec.num_sequences = 200;
    spec.length.min_len = 40;
    spec.length.max_len = 300;
    spec.seed = 433;
    std::vector<Sequence> seqs = db::generate_database(spec);
    // Several cohorts of copies at every lane width, so some of them
    // are filtered after the first copies have raised tau.
    constexpr std::size_t kCopies = 150;
    const std::size_t first_copy = seqs.size();
    for (std::size_t i = 0; i < kCopies; ++i) seqs.push_back(q);
    const db::Database database("selfmatch", std::move(seqs));

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, database, 1);
        const FunnelRun run = funnel_topk(aligner, database, 1);
        expect_same_hits(run.hits, want, label);
        EXPECT_EQ(run.hits[0].db_index, first_copy) << label;
        EXPECT_GT(run.stats.subjects_saturated, 0u) << label;
        for (const std::uint32_t idx : run.pruned) {
            EXPECT_LT(idx, first_copy) << label << ": a copy was pruned";
        }
    }
}

TEST(DatabaseScannerFunnel, MultiTileEarlyExitBitIdentical) {
    // A query of several prefilter tiles over a planted family: once the
    // family has raised tau, the query-row bound and the composition
    // cap decide whole cohorts before their last tiles, and the sweep
    // stops there. The top-k must not move.
    const db::ScanSample sample = db::make_scan_sample(600, {700});
    const Sequence& q = sample.queries[0];
    ASSERT_GT(filter_tile_count(q.size()), 4u);
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, sample.database, 10);
        const FunnelRun run = funnel_topk(aligner, sample.database, 10);
        expect_same_hits(run.hits, want, label);
        EXPECT_EQ(run.emitted + run.pruned_calls, sample.database.size())
            << label;
        EXPECT_GT(run.stats.subjects_pruned, 0u) << label;
        EXPECT_GT(run.stats.filter_tiles_skipped, 0u) << label;
        // Every filtered cohort accounts for each of its tiles once.
        EXPECT_EQ(run.stats.filter_tiles + run.stats.filter_tiles_skipped,
                  run.stats.cohorts_filtered * filter_tile_count(q.size()))
            << label;
    }
}

/// The layout splits a query's family: W - 3 long random subjects
/// (900-960 residues) fill the first (longest) cohort together with the
/// 3 longest of the `planted` members, followed by 10 W short random
/// subjects and the members. Background first, then the members.
struct SplitFamily {
    db::Database database;
    std::size_t first_member = 0;
};

SplitFamily split_family_database(int w, const std::vector<Sequence>& planted,
                                  std::size_t family) {
    Rng rng(447);
    std::vector<Sequence> seqs;
    for (int i = 0; i < w - 3; ++i) {
        seqs.push_back(db::random_protein(rng, 900 + rng.below(60), "l"));
    }
    for (int i = 0; i < 10 * w; ++i) {
        seqs.push_back(db::random_protein(rng, 100 + rng.below(150), "b"));
    }
    const std::size_t first_member = seqs.size();
    seqs.insert(seqs.end(), planted.end() - static_cast<std::ptrdiff_t>(family),
                planted.end());
    return {db::Database("split", std::move(seqs)), first_member};
}

TEST(DatabaseScannerFunnel, FamilySplitAcrossCohortsIsHotAndPrunesBackground) {
    // The first cohort claimed holds 3 family members among long random
    // subjects; the other 9 come later. Every member clips the probe
    // tile wherever it sits, so all of them reach the wide drain, tau
    // is the family's k-th best before any background lane is decided,
    // and the long subjects parked with the first cohort are pruned
    // like the rest of the background.
    constexpr std::size_t kFamily = 12;
    constexpr std::size_t kTopK = 10;
    const db::ScanSample sample =
        db::make_scan_sample(kFamily + 1, {300}, kFamily, 443);
    const Sequence& q = sample.queries[0];
    ASSERT_GT(filter_tile_count(q.size()), 1u);

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int w = lanes_u8(isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        const SplitFamily split =
            split_family_database(w, sample.database.sequences(), kFamily);
        const db::Database& database = split.database;

        // The split this test is about: some cohort holds a family
        // member although its mean length is over twice the query's.
        const InterleavedCohorts view =
            database.packed().interleaved(w).view();
        const std::uint32_t* order = database.packed().view().order;
        bool split_seen = false;
        for (std::size_t c = 0; c < view.count; ++c) {
            const CohortDesc& d = view.cohorts[c];
            for (std::uint32_t l = 0; l < d.lanes_used; ++l) {
                const std::size_t slot = d.first_slot + l;
                const std::uint32_t idx =
                    order != nullptr ? order[slot]
                                     : static_cast<std::uint32_t>(slot);
                split_seen |= idx >= split.first_member &&
                              d.residues / d.lanes_used > 2 * q.size();
            }
        }
        ASSERT_TRUE(split_seen) << label;

        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, database, kTopK);
        const FunnelRun run = funnel_topk(aligner, database, kTopK);
        expect_same_hits(run.hits, want, label);
        EXPECT_EQ(run.stats.subjects_hot, kFamily) << label;
        EXPECT_EQ(run.stats.subjects_pruned, split.first_member) << label;
        for (const std::uint32_t idx : run.pruned) {
            EXPECT_LT(idx, split.first_member) << label << ": member pruned";
        }
    }
}

TEST(DatabaseScannerFunnel, SplitFamilyOfAtLeastKDrainsInOnePass) {
    // 6 members, k = 5: the first cohort claimed holds 3 of them, a
    // later one the other 3. The first cohort's hot lanes cannot create
    // tau on their own (3 < k), so they are held, and both cohorts'
    // hot lanes settle in one i16 pass — one cliff group, since 6 lanes
    // fit one i16 vector at every width. The top-k is the oracle's.
    constexpr std::size_t kFamily = 6;
    constexpr std::size_t kTopK = 5;
    const db::ScanSample sample =
        db::make_scan_sample(kFamily + 1, {300}, kFamily, 443);
    const Sequence& q = sample.queries[0];
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        ASSERT_LE(kFamily, static_cast<std::size_t>(lanes_i16(isa)));
        const SplitFamily split = split_family_database(
            lanes_u8(isa), sample.database.sequences(), kFamily);
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, split.database, kTopK);
        const FunnelRun run = funnel_topk(aligner, split.database, kTopK);
        expect_same_hits(run.hits, want, label);
        EXPECT_EQ(run.stats.subjects_hot, kFamily) << label;
        EXPECT_EQ(run.stats.escalations16, 1u) << label;
        EXPECT_EQ(run.stats.settled16 + run.stats.settled32, kFamily)
            << label;
        EXPECT_EQ(run.stats.subjects_pruned, split.first_member) << label;
    }
}

TEST(DatabaseScannerFunnel, FamilySmallerThanKDrainsOnceWhenClaimsRunOut) {
    // 5 members, k = 10, split 3 + 2 across two cohorts: the hot lanes
    // can never create tau, so they are held until the claims run out
    // and then settle in one i16 pass, before the parked walk scores
    // any background lane. The top-k is the oracle's.
    constexpr std::size_t kFamily = 5;
    constexpr std::size_t kTopK = 10;
    const db::ScanSample sample =
        db::make_scan_sample(kFamily + 1, {300}, kFamily, 443);
    const Sequence& q = sample.queries[0];
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        const SplitFamily split = split_family_database(
            lanes_u8(isa), sample.database.sequences(), kFamily);
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, split.database, kTopK);
        const FunnelRun run = funnel_topk(aligner, split.database, kTopK);
        expect_same_hits(run.hits, want, label);
        EXPECT_EQ(run.stats.subjects_hot, kFamily) << label;
        EXPECT_EQ(run.stats.escalations16, 1u) << label;
        ASSERT_GE(run.settled.size(), kFamily) << label;
        for (std::size_t i = 0; i < kFamily; ++i) {
            EXPECT_GE(run.settled[i], split.first_member)
                << label << ": background settled before the family";
        }
    }
}

TEST(DatabaseScannerFunnel, HotLanesAreDrainedBeforeAnyBackground) {
    // A planted family whose every member clips u8 in the probe tile,
    // longer than every background subject, so the layout puts it in
    // the first cohort claimed. The members are drained at once, as
    // hot lanes: tau exists before that cohort's background lanes are
    // decided, no cohort is parked, the members are the only subjects
    // exact-scored, and every background lane is pruned — none is
    // scored blind.
    constexpr std::size_t kFamily = 12;
    const db::ScanSample sample =
        db::make_scan_sample(kFamily + 1, {300}, kFamily, 443);
    const Sequence& q = sample.queries[0];
    ASSERT_GT(filter_tile_count(q.size()), 1u);
    db::DatabaseSpec spec;
    spec.name = "short";
    spec.num_sequences = 300;
    spec.length.min_len = 40;
    spec.length.max_len = 250;
    spec.seed = 451;
    std::vector<Sequence> seqs = db::generate_database(spec);
    const std::size_t background = seqs.size();
    const std::vector<Sequence>& planted = sample.database.sequences();
    seqs.insert(seqs.end(), planted.end() - kFamily, planted.end());
    const db::Database database("hot", std::move(seqs));
    for (std::size_t i = background; i < database.size(); ++i) {
        ASSERT_GT(database[i].size(), spec.length.max_len);
    }
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, database, 10);
        const FunnelRun run = funnel_topk(aligner, database, 10);
        expect_same_hits(run.hits, want, label);
        EXPECT_EQ(run.stats.subjects_hot, kFamily) << label;
        EXPECT_EQ(run.stats.cohorts_parked, 0u) << label;
        EXPECT_EQ(run.emitted, kFamily) << label;
        for (const std::uint32_t idx : run.settled) {
            EXPECT_GE(idx, background) << label << ": background scored";
        }
        EXPECT_EQ(run.pruned_calls, background) << label;
        EXPECT_EQ(run.stats.subjects_pruned, background) << label;
    }
}

TEST(DatabaseScannerFunnel, ShortFamilyBelowU8SettlesFromThePark) {
    // A single-tile query whose family stays inside u8 in the probe:
    // nothing is hot, so every cohort is parked. The parked walk takes
    // the cohort with the largest first-tile bound first — the one
    // holding the family — and its exact scores set tau, so the rest
    // of the background is still pruned: no more than two cohorts'
    // lanes are exact-scored (walked smallest bound first, the first
    // cohort sets a background-level tau and nearly every subject is
    // exact-scored).
    constexpr std::size_t kFamily = 12;
    const db::ScanSample sample = db::make_scan_sample(600, {50}, kFamily);
    ASSERT_EQ(filter_tile_count(sample.queries[0].size()), 1u);
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(sample.queries[0].residues, blosum(),
                                     kGap, isa);
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, sample.database, 10);
        const FunnelRun run = funnel_topk(aligner, sample.database, 10);
        expect_same_hits(run.hits, want, label);
        EXPECT_EQ(run.emitted + run.pruned_calls, sample.database.size())
            << label;
        EXPECT_EQ(run.stats.subjects_hot, 0u) << label;
        EXPECT_GT(run.stats.cohorts_parked, 0u) << label;
        EXPECT_GT(run.stats.subjects_pruned, 0u) << label;
        EXPECT_LE(run.emitted, 2u * static_cast<unsigned>(lanes_u8(isa)))
            << label;
    }
}

TEST(DatabaseScannerFunnel, ThreadedEngineMatchesOneThreadOnSplitFamily) {
    // Three CpuEngine workers claim the split-family cohorts and race
    // the shared threshold; each parks and drains its own cohorts. The
    // merged top-k must equal the one-thread run's and the oracle's.
    constexpr std::size_t kFamily = 12;
    const db::ScanSample sample =
        db::make_scan_sample(kFamily + 1, {300}, kFamily, 443);
    const Sequence& q = sample.queries[0];
    const ScoreMatrix& matrix = blosum();
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const std::string label = "isa=" + std::string(simd::to_string(isa));
        const SplitFamily split = split_family_database(
            lanes_u8(isa), sample.database.sequences(), kFamily);
        engines::EngineConfig config;
        config.matrix = &matrix;
        config.gap = kGap;
        config.top_k = 10;
        config.isa = isa;
        const std::vector<core::Hit> want = exhaustive_topk(
            StripedAligner(q.residues, matrix, kGap, isa), split.database,
            10);
        const core::TaskResult one = engines::CpuEngine(config, 1).execute(
            q, 0, 0, split.database, nullptr);
        expect_same_hits(one.hits, want, label + " threads=1");
        for (int round = 0; round < 3; ++round) {
            const core::TaskResult three =
                engines::CpuEngine(config, 3).execute(q, 0, 0, split.database,
                                                      nullptr);
            expect_same_hits(three.hits, one.hits,
                             label + " threads=3 round " +
                                 std::to_string(round));
        }
    }
}

TEST(DatabaseScannerFunnel, AllIdenticalScoresKeepEveryTie) {
    // Every subject is the same sequence, so every exact score ties the
    // threshold exactly. The strict-inequality prune policy must keep
    // them all: the top-k is then decided purely by the db_index
    // tie-break, identical to the exhaustive scan.
    Rng rng(307);
    const Sequence s = db::random_protein(rng, 60, "twin");
    std::vector<Sequence> seqs(130, s);
    const db::Database database("twins", std::move(seqs));
    const Sequence q = db::random_protein(rng, 70, "q");

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        for (const std::size_t k : {std::size_t{1}, std::size_t{10}}) {
            const std::vector<core::Hit> want =
                exhaustive_topk(aligner, database, k);
            const FunnelRun run = funnel_topk(aligner, database, k);
            expect_same_hits(run.hits, want, "twins k=" + std::to_string(k));
            // Nothing scores strictly below the threshold, so nothing
            // may be pruned.
            EXPECT_EQ(run.stats.subjects_pruned, 0u);
            EXPECT_EQ(run.emitted, database.size());
            for (std::size_t i = 0; i < run.hits.size(); ++i) {
                EXPECT_EQ(run.hits[i].db_index, i);  // index tie-break
            }
        }
    }
}

TEST(DatabaseScannerFunnel, TiesAtThresholdSurviveAmongBackground) {
    // Two planted twins tie at the exact top score over a pruned
    // background with k = 2: the second twin arrives when the
    // threshold already equals its score, so a non-strict prune would
    // drop it.
    db::DatabaseSpec spec;
    spec.name = "ties";
    spec.num_sequences = 200;
    spec.length.min_len = 30;
    spec.length.max_len = 90;
    spec.seed = 311;
    auto seqs = db::generate_database(spec);
    Rng rng(313);
    const Sequence q = db::random_protein(rng, 64, "q");
    Sequence twin = q;
    twin.id = "twin-a";
    seqs.insert(seqs.begin() + 11, twin);
    twin.id = "twin-b";
    seqs.insert(seqs.begin() + 171, twin);
    const db::Database database("ties", std::move(seqs));

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, database, 2);
        EXPECT_EQ(want[0].score, want[1].score);
        EXPECT_EQ(want[0].db_index, 11u);
        EXPECT_EQ(want[1].db_index, 171u);
        const FunnelRun run = funnel_topk(aligner, database, 2);
        expect_same_hits(run.hits, want,
                         "isa=" + std::string(simd::to_string(isa)));
    }
}

TEST(DatabaseScannerFunnel, EmptyAndTinyDatabases) {
    Rng rng(317);
    const Sequence q = db::random_protein(rng, 50, "q");
    const StripedAligner aligner(q.residues, blosum(), kGap);

    const db::Database empty("empty", {});
    const FunnelRun none = funnel_topk(aligner, empty, 10);
    EXPECT_TRUE(none.hits.empty());
    EXPECT_EQ(none.emitted, 0u);
    EXPECT_EQ(none.pruned_calls, 0u);

    // k exceeds the database: the threshold never materializes
    // (kth_score stays kNoThreshold), so nothing may be pruned and all
    // subjects are returned.
    std::vector<Sequence> few;
    for (int i = 0; i < 5; ++i) {
        few.push_back(db::random_protein(rng, 20 + i * 13, "t"));
    }
    const db::Database tiny("tiny", std::move(few));
    const std::vector<core::Hit> want = exhaustive_topk(aligner, tiny, 100);
    EXPECT_EQ(want.size(), tiny.size());
    const FunnelRun run = funnel_topk(aligner, tiny, 100);
    expect_same_hits(run.hits, want, "tiny");
    EXPECT_EQ(run.stats.subjects_pruned, 0u);
    EXPECT_EQ(run.emitted, tiny.size());
}

TEST(DatabaseScannerFunnel, ThresholdWithoutCohortsIsInert) {
    // A threshold feed without a cohort layout cannot arm the
    // prefilter (the ungapped kernels share the cohort geometry);
    // the scan must degrade to the plain exhaustive two-pass.
    const db::ScanSample sample = db::make_scan_sample(120, {80});
    const StripedAligner aligner(sample.queries[0].residues, blosum(), kGap);
    const db::PackedDatabase& packed = sample.database.packed();
    std::atomic<Score> tau{1000000};  // would prune everything if armed
    DatabaseScanner scanner(aligner, packed.view(),
                            DatabaseScanner::kDefaultChunk, {}, {&tau, 10});
    EXPECT_FALSE(scanner.prefilter_armed());
    engines::TopK topk(10);
    ScanScratch scratch;
    std::uint64_t emitted = 0;
    EXPECT_TRUE(scanner.run_worker(
        scratch, [&](std::uint32_t idx, std::uint32_t, Score s) {
            topk.add(idx, s);
            ++emitted;
            return true;
        }));
    EXPECT_EQ(emitted, sample.database.size());
    EXPECT_EQ(scanner.stats().cohorts_filtered, 0u);
    expect_same_hits(topk.take(),
                     exhaustive_topk(aligner, sample.database, 10),
                     "inert threshold");
}

TEST(DatabaseScannerFunnel, ConcurrentWorkersBitIdentical) {
    // Four workers claim cohorts from the shared cursor and race the
    // rising threshold; per-worker collectors merge at the end. The
    // worker-local k-th best published through the shared CAS-max is a
    // sound global threshold, so the merged top-k must still be
    // bit-identical to the exhaustive oracle.
    const db::ScanSample sample = db::make_scan_sample(400, {120});
    const StripedAligner aligner(sample.queries[0].residues, blosum(), kGap);
    const std::vector<core::Hit> want =
        exhaustive_topk(aligner, sample.database, 10);

    for (int round = 0; round < 3; ++round) {
        const db::PackedDatabase& packed = sample.database.packed();
        std::atomic<Score> tau{engines::TopK::kNoThreshold};
        DatabaseScanner scanner(
            aligner, packed.view(), /*chunk=*/64,
            packed.interleaved(lanes_u8(aligner.isa())).view(), {&tau, 10});
        constexpr int kWorkers = 4;
        std::vector<engines::TopK> collectors(kWorkers, engines::TopK(10));
        std::atomic<std::uint64_t> settled{0};
        std::atomic<std::uint64_t> pruned{0};
        std::vector<std::thread> workers;
        for (int w = 0; w < kWorkers; ++w) {
            workers.emplace_back([&, w] {
                ScanScratch scratch;
                scanner.run_worker(
                    scratch,
                    [&](std::uint32_t idx, std::uint32_t, Score s) {
                        collectors[static_cast<std::size_t>(w)].add(idx, s);
                        settled.fetch_add(1, std::memory_order_relaxed);
                        const Score kth =
                            collectors[static_cast<std::size_t>(w)]
                                .kth_score();
                        Score cur = tau.load(std::memory_order_relaxed);
                        while (kth > cur &&
                               !tau.compare_exchange_weak(
                                   cur, kth, std::memory_order_relaxed)) {
                        }
                        return true;
                    },
                    [&](std::uint32_t, std::uint32_t) {
                        pruned.fetch_add(1, std::memory_order_relaxed);
                        return true;
                    });
            });
        }
        for (auto& t : workers) t.join();

        EXPECT_EQ(settled.load() + pruned.load(), sample.database.size());
        engines::TopK merged(10);
        for (auto& c : collectors) merged.merge(std::move(c));
        expect_same_hits(merged.take(), want,
                         "round " + std::to_string(round));
    }
}

}  // namespace
}  // namespace swh::align
