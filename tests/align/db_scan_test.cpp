// Golden equivalence of the packed two-pass scan pipeline against the
// seed per-sequence StripedAligner::score path, at every ISA tier and
// width this host has (tier_widths.hpp) — including forced-overflow subjects that push the
// scan into pass 2 (i16) and the scalar int32 fallback — plus a
// concurrency test with a shared scanner and per-thread scratch.

#include "align/db_scan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "align/sw_scalar.hpp"
#include "db/database.hpp"
#include "db/packed.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "tier_widths.hpp"

namespace swh::align {
namespace {

const ScoreMatrix& blosum() {
    static const ScoreMatrix m = ScoreMatrix::blosum62();
    return m;
}

constexpr GapPenalty kGap{10, 2};

/// Mixed database: generated sequences plus a long planted copy of the
/// overflow query, so the u8 kernel saturates on at least one subject.
db::Database golden_db(const Sequence& planted) {
    db::DatabaseSpec spec;
    spec.name = "golden";
    spec.num_sequences = 60;
    spec.length.min_len = 10;
    spec.length.max_len = 220;
    spec.seed = 23;
    auto seqs = db::generate_database(spec);
    seqs.insert(seqs.begin() + 7, planted);
    return db::Database("golden", std::move(seqs));
}

/// Scans the whole packed database with one worker and returns scores
/// indexed by original database index (and the scanner's counters in
/// `stats` when non-null).
std::vector<Score> scan_scores(const StripedAligner& aligner,
                               const db::Database& database,
                               DatabaseScanner::Stats* stats = nullptr,
                               std::size_t chunk = 16) {
    DatabaseScanner scanner(aligner, database.packed().view(), chunk);
    std::vector<Score> scores(database.size(), -1);
    ScanScratch scratch;
    const bool completed = scanner.run_worker(
        scratch, [&](std::uint32_t idx, std::uint32_t len, Score s) {
            EXPECT_EQ(len, database[idx].size());
            EXPECT_EQ(scores[idx], -1) << "subject emitted twice";
            scores[idx] = s;
            return true;
        });
    EXPECT_TRUE(completed);
    if (stats != nullptr) *stats = scanner.stats();
    return scores;
}

TEST(DatabaseScanner, GoldenEquivalenceAcrossIsaLevels) {
    Rng rng(71);
    const Sequence planted = db::random_protein(rng, 400, "planted");
    const db::Database database = golden_db(planted);

    Rng qrng(72);
    const std::vector<Sequence> queries = {
        db::random_protein(qrng, 80, "short"),
        db::random_protein(qrng, 250, "medium"),
        planted,  // identical to a subject: u8 overflow, pass 2 settles
    };

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        for (const Sequence& q : queries) {
            const StripedAligner aligner(q.residues, blosum(), kGap, isa);
            DatabaseScanner::Stats ds;
            const std::vector<Score> packed_scores =
                scan_scores(aligner, database, &ds);
            for (std::size_t i = 0; i < database.size(); ++i) {
                // Seed path: per-sequence score() with inline escalation.
                EXPECT_EQ(packed_scores[i],
                          aligner.score(database[i].residues))
                    << "isa=" << simd::to_string(isa) << " query=" << q.id
                    << " subject=" << i;
            }
            // Every settled subject was counted exactly once, at the
            // width that settled it.
            EXPECT_EQ(ds.settled8 + ds.settled16 + ds.settled32,
                      database.size());
        }
    }
}

TEST(DatabaseScanner, PlantedSubjectExercisesPass2) {
    Rng rng(81);
    const Sequence planted = db::random_protein(rng, 400, "planted");
    const db::Database database = golden_db(planted);
    const StripedAligner aligner(planted.residues, blosum(), kGap);
    DatabaseScanner::Stats ds;
    const std::vector<Score> scores = scan_scores(aligner, database, &ds);
    // The planted copy sits at index 7 and must carry the exact oracle
    // score, which is far above the 8-bit ceiling.
    const Score oracle = sw_score_affine(planted.residues, planted.residues,
                                         blosum(), kGap);
    EXPECT_GT(oracle, 255);
    EXPECT_EQ(scores[7], oracle);
    EXPECT_GE(ds.settled16 + ds.settled32, 1u);
}

TEST(DatabaseScanner, Int32FallbackMatchesOracle) {
    // match=11 over a 3200-residue identical pair: score ~35200 saturates
    // even the i16 kernel, forcing the scalar int32 rescore (through the
    // shared scratch) inside pass 2.
    const ScoreMatrix matrix =
        ScoreMatrix::match_mismatch(Alphabet::protein(), 11, -4);
    Rng rng(91);
    const Sequence big = db::random_protein(rng, 3200, "big");
    std::vector<Sequence> seqs;
    seqs.push_back(db::random_protein(rng, 50, "small-a"));
    seqs.push_back(big);
    seqs.push_back(db::random_protein(rng, 70, "small-b"));
    const db::Database database("overflow32", std::move(seqs));

    const StripedAligner aligner(big.residues, matrix, kGap);
    DatabaseScanner::Stats ds;
    const std::vector<Score> scores = scan_scores(aligner, database, &ds);
    const Score oracle =
        sw_score_affine(big.residues, big.residues, matrix, kGap);
    EXPECT_GT(oracle, 32767);
    EXPECT_EQ(scores[1], oracle);
    EXPECT_GE(ds.settled32, 1u);
    for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
        EXPECT_EQ(scores[i],
                  sw_score_affine(big.residues, database[i].residues, matrix,
                                  kGap));
    }
}

TEST(DatabaseScanner, ConcurrentWorkersMatchSequential) {
    db::DatabaseSpec spec;
    spec.name = "conc";
    spec.num_sequences = 200;
    spec.length.min_len = 15;
    spec.length.max_len = 250;
    spec.seed = 31;
    const db::Database database = db::Database::generate(spec);
    Rng rng(32);
    const Sequence q = db::random_protein(rng, 150, "q");

    const StripedAligner aligner(q.residues, blosum(), kGap);
    DatabaseScanner scanner(aligner, database.packed().view(), /*chunk=*/8);

    std::vector<Score> scores(database.size(), -1);
    std::atomic<std::size_t> emitted{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&] {
            ScanScratch scratch;  // per-thread, shared profiles
            scanner.run_worker(
                scratch, [&](std::uint32_t idx, std::uint32_t, Score s) {
                    scores[idx] = s;  // distinct idx per emit: no race
                    emitted.fetch_add(1, std::memory_order_relaxed);
                    return true;
                });
        });
    }
    for (auto& t : workers) t.join();

    EXPECT_EQ(emitted.load(), database.size());
    for (std::size_t i = 0; i < database.size(); ++i) {
        EXPECT_EQ(scores[i], aligner.score(database[i].residues))
            << "subject " << i;
    }
}

TEST(DatabaseScanner, EmitFalseCancelsScan) {
    const db::Database database = golden_db(Sequence{"p", "", {0, 1, 2}});
    Rng rng(41);
    const Sequence q = db::random_protein(rng, 60, "q");
    const StripedAligner aligner(q.residues, blosum(), kGap);
    DatabaseScanner scanner(aligner, database.packed().view(), /*chunk=*/4);
    ScanScratch scratch;
    int emits = 0;
    const bool completed =
        scanner.run_worker(scratch, [&](std::uint32_t, std::uint32_t, Score) {
            return ++emits < 5;
        });
    EXPECT_FALSE(completed);
    EXPECT_EQ(emits, 5);
}

/// Cohort-mode variant of scan_scores: attaches the lane-interleaved
/// layout so pass 1 dispatches between the inter-sequence and striped
/// kernels.
std::vector<Score> cohort_scan_scores(const StripedAligner& aligner,
                                      const db::Database& database,
                                      DatabaseScanner::Stats* stats) {
    const db::PackedDatabase& packed = database.packed();
    DatabaseScanner scanner(
        aligner, packed.view(), /*chunk=*/64,
        packed.interleaved(lanes_u8(aligner.isa())).view());
    EXPECT_TRUE(scanner.cohort_mode());
    std::vector<Score> scores(database.size(), -1);
    ScanScratch scratch;
    const bool completed = scanner.run_worker(
        scratch, [&](std::uint32_t idx, std::uint32_t len, Score s) {
            EXPECT_EQ(len, database[idx].size());
            EXPECT_EQ(scores[idx], -1) << "subject emitted twice";
            scores[idx] = s;
            return true;
        });
    EXPECT_TRUE(completed);
    if (stats != nullptr) *stats = scanner.stats();
    return scores;
}

TEST(DatabaseScanner, InterseqScanMatchesStripedAcrossIsaLevels) {
    Rng rng(171);
    const Sequence planted = db::random_protein(rng, 400, "planted");
    // Enough sequences that even 64-wide cohorts hold near-equal
    // lengths (so some pass the fill gate), while the planted copy and
    // the length spread still exercise the striped fallback and pass 2.
    db::DatabaseSpec spec;
    spec.name = "golden-cohort";
    spec.num_sequences = 500;
    spec.length.min_len = 30;
    spec.length.max_len = 240;
    spec.seed = 24;
    auto seqs = db::generate_database(spec);
    seqs.insert(seqs.begin() + 7, planted);
    const db::Database database("golden-cohort", std::move(seqs));

    Rng qrng(172);
    const std::vector<Sequence> queries = {
        db::random_protein(qrng, 60, "short"),
        db::random_protein(qrng, 180, "medium"),
        planted,  // identical to a subject: overflow lanes hit pass 2
    };

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        for (const Sequence& q : queries) {
            const StripedAligner aligner(q.residues, blosum(), kGap, isa);
            ASSERT_NE(aligner.interseq(), nullptr);
            DatabaseScanner::Stats ds;
            const std::vector<Score> scores =
                cohort_scan_scores(aligner, database, &ds);
            for (std::size_t i = 0; i < database.size(); ++i) {
                EXPECT_EQ(scores[i], aligner.score(database[i].residues))
                    << "isa=" << simd::to_string(isa) << " query=" << q.id
                    << " subject=" << i;
            }
            // Every subject went through exactly one pass-1 kernel, and
            // the short queries must actually use the new kernel.
            EXPECT_EQ(ds.subjects_interseq + ds.subjects_striped,
                      database.size());
            EXPECT_GE(ds.cohorts_interseq, 1u)
                << "isa=" << simd::to_string(isa) << " query=" << q.id;
            EXPECT_EQ(ds.settled8 + ds.settled16 + ds.settled32,
                      database.size());
        }
    }
}

TEST(DatabaseScanner, LongQueryDispatchesTiledInterseq) {
    // Past kInterseqTileRows the cohorts must keep inter-sequence
    // coverage through the query-tiled kernel instead of falling back
    // to striped.
    db::DatabaseSpec spec;
    spec.name = "long-q";
    spec.num_sequences = 200;
    spec.length.min_len = 90;
    spec.length.max_len = 130;
    spec.seed = 57;
    const db::Database database = db::Database::generate(spec);
    Rng rng(58);
    const Sequence q =
        db::random_protein(rng, 2 * kInterseqTileRows + 1, "long");
    const StripedAligner aligner(q.residues, blosum(), kGap);
    DatabaseScanner::Stats ds;
    const std::vector<Score> scores =
        cohort_scan_scores(aligner, database, &ds);
    EXPECT_GT(ds.cohorts_interseq, 0u);
    EXPECT_GT(ds.subjects_interseq, 0u);
    for (std::size_t i = 0; i < database.size(); ++i) {
        EXPECT_EQ(scores[i], aligner.score(database[i].residues));
    }
}

TEST(DatabaseScanner, ConcurrentCohortWorkersMatchSequential) {
    db::DatabaseSpec spec;
    spec.name = "conc-cohort";
    spec.num_sequences = 300;
    spec.length.min_len = 15;
    spec.length.max_len = 250;
    spec.seed = 61;
    const db::Database database = db::Database::generate(spec);
    Rng rng(62);
    const Sequence q = db::random_protein(rng, 120, "q");

    const StripedAligner aligner(q.residues, blosum(), kGap);
    const db::PackedDatabase& packed = database.packed();
    DatabaseScanner scanner(
        aligner, packed.view(), /*chunk=*/32,
        packed.interleaved(lanes_u8(aligner.isa())).view());

    std::vector<Score> scores(database.size(), -1);
    std::atomic<std::size_t> emitted{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&] {
            ScanScratch scratch;
            scanner.run_worker(
                scratch, [&](std::uint32_t idx, std::uint32_t, Score s) {
                    scores[idx] = s;
                    emitted.fetch_add(1, std::memory_order_relaxed);
                    return true;
                });
        });
    }
    for (auto& t : workers) t.join();

    EXPECT_EQ(emitted.load(), database.size());
    for (std::size_t i = 0; i < database.size(); ++i) {
        EXPECT_EQ(scores[i], aligner.score(database[i].residues))
            << "subject " << i;
    }
    const DatabaseScanner::Stats ds = scanner.stats();
    EXPECT_EQ(ds.subjects_interseq + ds.subjects_striped, database.size());
}

TEST(DatabaseScanner, EmitFalseCancelsMidCohortAcrossWorkers) {
    db::DatabaseSpec spec;
    spec.name = "cancel-cohort";
    spec.num_sequences = 400;
    spec.length.min_len = 20;
    spec.length.max_len = 200;
    spec.seed = 67;
    const db::Database database = db::Database::generate(spec);
    Rng rng(68);
    const Sequence q = db::random_protein(rng, 80, "q");
    const StripedAligner aligner(q.residues, blosum(), kGap);
    const db::PackedDatabase& packed = database.packed();
    DatabaseScanner scanner(
        aligner, packed.view(), /*chunk=*/16,
        packed.interleaved(lanes_u8(aligner.isa())).view());

    // The stop threshold (5) is below one cohort's lane count, so the
    // first worker to hit it cancels mid-cohort: it must settle no
    // further lanes of that cohort (nor its deferred batch).
    constexpr std::size_t kStopAfter = 5;
    constexpr int kWorkers = 4;
    std::atomic<std::size_t> emitted{0};
    std::vector<std::thread> workers;
    std::vector<char> completed(kWorkers, 1);
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            ScanScratch scratch;
            completed[static_cast<std::size_t>(w)] =
                scanner.run_worker(
                    scratch, [&](std::uint32_t, std::uint32_t, Score) {
                        return emitted.fetch_add(
                                   1, std::memory_order_relaxed) +
                                   1 <
                               kStopAfter;
                    })
                    ? 1
                    : 0;
        });
    }
    for (auto& t : workers) t.join();

    // Each worker settles at most one subject past the shared threshold
    // before its own emit returns false; nobody scans to completion.
    EXPECT_GE(emitted.load(), kStopAfter);
    EXPECT_LE(emitted.load(), kStopAfter + kWorkers);
    EXPECT_LT(emitted.load(), database.size());
    bool any_cancelled = false;
    for (const char c : completed) any_cancelled |= (c == 0);
    EXPECT_TRUE(any_cancelled);
}

TEST(DatabaseScanner, RejectsCohortWidthMismatch) {
    db::DatabaseSpec spec;
    spec.name = "mismatch";
    spec.num_sequences = 20;
    spec.length.min_len = 10;
    spec.length.max_len = 50;
    spec.seed = 71;
    const db::Database database = db::Database::generate(spec);
    Rng rng(72);
    const Sequence q = db::random_protein(rng, 40, "q");
    const StripedAligner aligner(q.residues, blosum(), kGap);
    const db::PackedDatabase& packed = database.packed();
    // A width the aligner's ISA does not use (u8 lane counts are
    // 16/32/64, never 8).
    const InterleavedCohorts wrong = packed.interleaved(8).view();
    EXPECT_THROW(
        DatabaseScanner(aligner, packed.view(), /*chunk=*/16, wrong),
        ContractError);
}

TEST(DatabaseScanner, RejectsResiduesOutsideAlphabet) {
    // A DNA-alphabet matrix (5 symbols) cannot scan protein residues:
    // the pack-time max_code check must reject the pairing up front.
    std::vector<Sequence> seqs;
    seqs.push_back(Sequence{"bad", "", {0, 3, 19}});
    const db::Database database("bad", std::move(seqs));
    const ScoreMatrix dna_matrix =
        ScoreMatrix::match_mismatch(Alphabet::dna(), 5, -4);
    const StripedAligner aligner({0, 1, 2}, dna_matrix, kGap);
    EXPECT_THROW(DatabaseScanner(aligner, database.packed().view()),
                 ContractError);
}

}  // namespace
}  // namespace swh::align
