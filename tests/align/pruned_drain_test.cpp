// The bound-pruned i16 drain (sw_interseq_i16_tiled) and its banded
// seed (sw_score_banded). The pass skips the tile columns through which
// no path can beat a lane's running best; every score and overflow bit
// must still be the full sweep's, so each case checks them against the
// Gotoh oracle at every tier and width, with no seed, with the banded
// seed the scanner's drain uses, and with the tightest legal seed short
// of the answer (oracle - 1), under which any unsound skip shows as a
// score one too low.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "align/db_scan.hpp"
#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "db/generator.hpp"
#include "util/rng.hpp"
#include "tier_widths.hpp"

namespace swh::align {
namespace {

using Subjects = std::vector<std::vector<Code>>;

const ScoreMatrix& blosum() {
    static const ScoreMatrix m = ScoreMatrix::blosum62();
    return m;
}

constexpr GapPenalty kGap{10, 2};

Subjects random_subjects(Rng& rng, std::size_t n, std::size_t min_len,
                         std::size_t max_len) {
    Subjects subjects;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = min_len + rng.below(max_len - min_len + 1);
        subjects.push_back(db::random_protein(rng, len, "s").residues);
    }
    return subjects;
}

Subjects mutants(const std::vector<Code>& q, std::size_t n, Rng& rng) {
    const db::MutationModel model{0.15, 0.02, 0.02};
    Subjects subjects;
    for (std::size_t i = 0; i < n; ++i) {
        subjects.push_back(
            db::mutate(Sequence{"m", "", q}, Alphabet::protein(), model, rng)
                .residues);
    }
    return subjects;
}

enum class Seed { None, Banded, BelowOracle };

const char* to_string(Seed s) {
    switch (s) {
        case Seed::None: return "none";
        case Seed::Banded: return "banded";
        case Seed::BelowOracle: return "oracle-1";
    }
    return "?";
}

/// Runs one pass over `subjects` (at most lanes_i16(isa); the rest of
/// the vector is pad) and checks every lane against the oracle: the
/// flag is set iff oracle + max_raw >= 32767, and an unflagged lane
/// reports the oracle score. Returns the pass.
I16Pass check_group(const std::vector<Code>& q, const ScoreMatrix& matrix,
                    const Subjects& subjects, GapPenalty gap,
                    simd::IsaLevel isa, Seed how, const std::string& label) {
    const auto W = static_cast<std::size_t>(lanes_u8(isa));
    const int H = lanes_i16(isa);
    EXPECT_LE(subjects.size(), static_cast<std::size_t>(H)) << label;
    const InterseqProfile prof = build_interseq_profile(q, matrix);
    std::size_t columns = 0;
    for (const auto& s : subjects) columns = std::max(columns, s.size());
    std::vector<Code> cols(columns * W, InterseqProfile::kPadCode);
    for (std::size_t l = 0; l < subjects.size(); ++l) {
        for (std::size_t j = 0; j < subjects[l].size(); ++j) {
            cols[j * W + l] = subjects[l][j];
        }
    }
    std::vector<Score> oracle(static_cast<std::size_t>(H), 0);
    std::int16_t seed[64] = {};
    for (std::size_t l = 0; l < subjects.size(); ++l) {
        oracle[l] = sw_score_affine(q, subjects[l], matrix, gap);
        Score v = 0;
        if (how == Seed::Banded) {
            Score h[2 * DatabaseScanner::kDrainSeedBand + 1];
            Score f[2 * DatabaseScanner::kDrainSeedBand + 1];
            v = sw_score_banded(q, subjects[l], matrix, gap,
                                DatabaseScanner::kDrainSeedBand, h, f);
        } else if (how == Seed::BelowOracle) {
            v = std::max<Score>(oracle[l] - 1, 0);
        }
        seed[l] = static_cast<std::int16_t>(std::min<Score>(v, 32767));
    }
    ScanScratch scratch;
    InterseqColumnState state;
    std::int16_t best[64];
    const I16Pass pass =
        sw_interseq_i16_tiled(prof, cols.data(), columns, gap, isa, scratch,
                              state, how == Seed::None ? nullptr : seed, best);
    const std::string where = label + " isa=" + simd::to_string(isa) +
                              " seed=" + to_string(how);
    EXPECT_EQ(pass.columns,
              std::uint64_t{interseq_tile_count(q.size())} * columns)
        << where;
    EXPECT_LE(pass.columns_skipped, pass.columns) << where;
    for (int l = 0; l < H; ++l) {
        const auto i = static_cast<std::size_t>(l);
        const bool flag = oracle[i] + prof.max_raw >= 32767;
        EXPECT_EQ(((pass.overflow >> l) & 1) != 0, flag)
            << where << " lane=" << l << " oracle=" << oracle[i];
        if (!flag) {
            EXPECT_EQ(static_cast<Score>(best[l]), oracle[i])
                << where << " lane=" << l;
        }
    }
    EXPECT_EQ(pass.overflow >> H, 0u) << where;
    return pass;
}

constexpr Seed kSeeds[] = {Seed::None, Seed::Banded, Seed::BelowOracle};

TEST(PrunedDrain, PlantedMutantGroupsSkipColumnsAndStayExact) {
    // A homolog family, as the scanner drains it: every lane a mutant
    // of a three-tile query. Once a lane's best is near its score the
    // bound rules out most tile columns, so the pass must skip some —
    // with the banded seed and even with no seed at all.
    Rng rng(401);
    const std::vector<Code> q = db::random_protein(rng, 700, "q").residues;
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const Subjects family =
            mutants(q, static_cast<std::size_t>(lanes_i16(isa)), rng);
        for (const Seed how : kSeeds) {
            const I16Pass pass =
                check_group(q, blosum(), family, kGap, isa, how, "family");
            EXPECT_GT(pass.columns_skipped, 0u)
                << simd::to_string(isa) << " seed=" << to_string(how);
        }
    }
}

TEST(PrunedDrain, RandomGroupsStayExact) {
    // Unrelated subjects: little to prune, every lane's score small.
    Rng rng(409);
    for (const std::size_t qlen : {std::size_t{90}, std::size_t{530}}) {
        const std::vector<Code> q =
            db::random_protein(rng, qlen, "q").residues;
        for (const test::TierWidth& tw : test::tier_widths()) {
            const test::PinnedTier pin(tw);
            const simd::IsaLevel isa = tw.width;
            const Subjects group = random_subjects(
                rng, static_cast<std::size_t>(lanes_i16(isa)), 50, 400);
            for (const Seed how : kSeeds) {
                check_group(q, blosum(), group, kGap, isa, how,
                            "random qlen=" + std::to_string(qlen));
            }
        }
    }
}

TEST(PrunedDrain, MixedLengthsWithPadLanesStayExact) {
    // Ragged members — a long mutant, short fragments of the query, a
    // one-residue subject — and fewer members than lanes: columns past
    // a member's end and whole pad lanes carry no gain, so they die at
    // once, and must not take a live lane's columns with them.
    Rng rng(419);
    const std::vector<Code> q = db::random_protein(rng, 600, "q").residues;
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const auto n = static_cast<std::size_t>(lanes_i16(isa)) - 3;
        Subjects group = mutants(q, 1, rng);
        group.push_back(std::vector<Code>(q.begin() + 100, q.begin() + 160));
        group.push_back({q[7]});
        const Subjects rest = random_subjects(rng, n - group.size(), 5, 700);
        group.insert(group.end(), rest.begin(), rest.end());
        for (const Seed how : kSeeds) {
            check_group(q, blosum(), group, kGap, isa, how, "mixed");
        }
    }
}

TEST(PrunedDrain, SaturatingLanesKeepTheirFlags) {
    // A near-self match under a +60 matrix runs past i16 (about 60 per
    // residue over 700 rows): its flag must survive pruning, and the
    // random lanes beside it stay exact.
    Rng rng(421);
    const std::vector<Code> q = db::random_protein(rng, 700, "q").residues;
    const ScoreMatrix matrix =
        ScoreMatrix::match_mismatch(Alphabet::protein(), 60, -4);
    std::vector<Code> near_self = q;
    for (std::size_t i = 50; i < q.size(); i += 100) {
        near_self[i] = static_cast<Code>((near_self[i] + 1) % 20);
    }
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        Subjects group = random_subjects(
            rng, static_cast<std::size_t>(lanes_i16(isa)) - 1, 100, 400);
        group.insert(group.begin() + 1, near_self);
        for (const Seed how : kSeeds) {
            const I16Pass pass =
                check_group(q, matrix, group, kGap, isa, how, "saturating");
            EXPECT_TRUE((pass.overflow >> 1) & 1) << simd::to_string(isa);
        }
    }
}

TEST(PrunedDrain, GapChargesAtTheEndsStayExact) {
    // open + extend of 0 (gaps are free, E and F never fall) and above
    // 32767 (the kernel clips the charge; the bound uses the same one).
    Rng rng(431);
    const std::vector<Code> q = db::random_protein(rng, 400, "q").residues;
    for (const GapPenalty gap : {GapPenalty{0, 0}, GapPenalty{30000, 3000}}) {
        const std::string label = "gap " + std::to_string(gap.open) + "/" +
                                  std::to_string(gap.extend);
        for (const test::TierWidth& tw : test::tier_widths()) {
            const test::PinnedTier pin(tw);
            const simd::IsaLevel isa = tw.width;
            const auto h = static_cast<std::size_t>(lanes_i16(isa));
            Subjects group = mutants(q, h / 2, rng);
            const Subjects rest = random_subjects(rng, h - h / 2, 20, 300);
            group.insert(group.end(), rest.begin(), rest.end());
            for (const Seed how : kSeeds) {
                check_group(q, blosum(), group, gap, isa, how, label);
            }
        }
    }
}

TEST(PrunedDrain, OneRowAndOneColumnStayExact) {
    Rng rng(433);
    const std::vector<Code> one = db::random_protein(rng, 1, "q").residues;
    const std::vector<Code> q = db::random_protein(rng, 300, "q").residues;
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const auto h = static_cast<std::size_t>(lanes_i16(isa));
        Subjects columns1;
        for (std::size_t l = 0; l < h; ++l) {
            columns1.push_back({static_cast<Code>(l % 20)});
        }
        for (const Seed how : kSeeds) {
            check_group(one, blosum(), random_subjects(rng, h, 1, 50), kGap,
                        isa, how, "one row");
            check_group(q, blosum(), columns1, kGap, isa, how, "one column");
        }
    }
}

TEST(PrunedDrain, GapEnteringATileBelowASkippedColumnStaysExact) {
    // Three 256-row tiles: A, a run of X (BLOSUM62 row cap 0) that fills
    // the middle tile and the first 20 rows of the last, then C. Every
    // lane is A + C (a column is skipped only where all lanes are dead),
    // and the gap extension is free, so the alignment comes down A's
    // last column j as one vertical gap. The middle tile skips column
    // j - 1 under a seed one below the oracle: that column can only
    // reach A's end through a gap costlier than the lane's slack. It
    // keeps column j, and in the last tile the gap's F enters column j
    // while the carried diagonal H(r0 - 1, j - 1) reads the floor: only
    // the F_in term of Hub keeps that column computed (DESIGN.md
    // "Bound-pruned drain").
    Rng rng(467);
    const std::vector<Code> a = db::random_protein(rng, 256, "a").residues;
    const std::vector<Code> c = db::random_protein(rng, 236, "c").residues;
    std::vector<Code> q = a;
    q.insert(q.end(), 276, Alphabet::protein().encode('X'));
    q.insert(q.end(), c.begin(), c.end());
    ASSERT_EQ(interseq_tile_count(q.size()), 3u);
    std::vector<Code> member = a;
    member.insert(member.end(), c.begin(), c.end());
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const Subjects group(static_cast<std::size_t>(lanes_i16(isa)),
                             member);
        for (const Seed how : kSeeds) {
            const I16Pass pass = check_group(q, blosum(), group,
                                             GapPenalty{10, 0}, isa, how,
                                             "gap below a skipped column");
            if (how == Seed::BelowOracle) {
                EXPECT_GT(pass.columns_skipped, 0u);
            }
        }
    }
}

/// The band's rows sized exactly as the contract asks (a heap vector, so
/// a sanitizer build sees any access past them), filled with junk.
Score banded(const std::vector<Code>& s, const std::vector<Code>& t,
             GapPenalty gap, std::size_t half_width) {
    const std::size_t cells = std::min(t.size(), 2 * half_width + 1);
    std::vector<Score> h(cells, -7);
    std::vector<Score> f(cells, -7);
    return sw_score_banded(s, t, blosum(), gap, half_width, h.data(),
                           f.data());
}

TEST(BandedScore, NeverAboveTheOracle) {
    // Random pairs of any shape, mutants, and a subject whose homolog
    // sits far off the scaled diagonal: the band may miss the best
    // alignment, never overshoot it.
    Rng rng(443);
    for (int trial = 0; trial < 60; ++trial) {
        const std::vector<Code> s =
            db::random_protein(rng, 1 + rng.below(300), "s").residues;
        std::vector<Code> t =
            trial % 3 == 0
                ? mutants(s, 1, rng)[0]
                : db::random_protein(rng, 1 + rng.below(600), "t").residues;
        if (trial % 5 == 0) {
            const std::vector<Code> pad =
                db::random_protein(rng, 200, "p").residues;
            t.insert(t.begin(), pad.begin(), pad.end());
        }
        for (const std::size_t w : {0, 1, 4, 16}) {
            const GapPenalty gap = trial % 2 == 0 ? kGap : GapPenalty{3, 1};
            EXPECT_LE(banded(s, t, gap, w), sw_score_affine(s, t, blosum(), gap))
                << "trial " << trial << " w=" << w;
        }
    }
}

TEST(BandedScore, EqualsTheOracleOnceTheBandCoversTheMatrix) {
    Rng rng(449);
    for (int trial = 0; trial < 30; ++trial) {
        const std::vector<Code> s =
            db::random_protein(rng, 1 + rng.below(200), "s").residues;
        const std::vector<Code> t =
            trial % 2 == 0
                ? mutants(s, 1, rng)[0]
                : db::random_protein(rng, 1 + rng.below(400), "t").residues;
        const std::size_t cover = std::max(s.size(), t.size());
        EXPECT_EQ(banded(s, t, kGap, cover), sw_score_affine(s, t, blosum(), kGap))
            << "trial " << trial;
    }
}

TEST(BandedScore, FindsADiagonalHomolog) {
    // What the drain relies on: a mutant's alignment stays within 16 of
    // the scaled diagonal, so the band scores it nearly in full.
    Rng rng(457);
    const std::vector<Code> q = db::random_protein(rng, 800, "q").residues;
    for (const std::vector<Code>& m : mutants(q, 5, rng)) {
        const Score exact = sw_score_affine(q, m, blosum(), kGap);
        const Score band = banded(q, m, kGap, DatabaseScanner::kDrainSeedBand);
        EXPECT_LE(band, exact);
        EXPECT_GE(band * 10, exact * 9);
    }
}

TEST(BandedScore, EmptyInputScoresZero) {
    Rng rng(461);
    const std::vector<Code> s = db::random_protein(rng, 40, "s").residues;
    EXPECT_EQ(banded({}, s, kGap, 16), 0);
    EXPECT_EQ(banded(s, {}, kGap, 16), 0);
    EXPECT_EQ(banded({}, {}, kGap, 0), 0);
}

}  // namespace
}  // namespace swh::align
