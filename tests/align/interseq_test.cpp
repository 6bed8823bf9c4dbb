// Golden equivalence of the inter-sequence scan kernels against the
// scalar oracle and the striped kernels, at every ISA tier and width
// this host has. The kernels promise BIT-identical scores and overflow
// flags to the striped kernels (same saturating arithmetic per cell),
// so every comparison below is exact — including saturated lanes,
// padded lanes, and partial cohorts. Most queries here fit one query
// tile (the short-query case); interseq_tiled_test.cpp covers the
// tile boundaries.

#include "align/interseq.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "db/generator.hpp"
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

/// Column-major interleave of up to W subjects into a cohort of
/// `columns` columns, short/absent lanes padded with the sentinel.
std::vector<Code> interleave(const std::vector<std::vector<Code>>& subjects,
                             int lanes, std::size_t columns) {
    std::vector<Code> cols(columns * static_cast<std::size_t>(lanes),
                           InterseqProfile::kPadCode);
    for (std::size_t l = 0; l < subjects.size(); ++l) {
        for (std::size_t j = 0; j < subjects[l].size(); ++j) {
            cols[j * static_cast<std::size_t>(lanes) + l] = subjects[l][j];
        }
    }
    return cols;
}

std::vector<std::vector<Code>> random_subjects(Rng& rng, std::size_t n,
                                               std::size_t min_len,
                                               std::size_t max_len) {
    std::vector<std::vector<Code>> subjects;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len =
            min_len + rng.below(max_len - min_len + 1);
        subjects.push_back(
            db::random_protein(rng, len, std::string("s").append(std::to_string(i))).residues);
    }
    return subjects;
}

TEST(InterseqSupport, AcceptsEveryBuiltinAlphabet) {
    // The gate (alphabet < pad sentinel, biased range inside u8) is
    // defensive: every constructible matrix today passes — entries are
    // int8-bounded, so max + bias <= 127 + 128 = 255, and all factory
    // alphabets are <= 24 symbols. Pin that down so a future alphabet
    // bigger than the 5-bit code space gets caught by the gate, not by
    // a silent pad-code collision.
    EXPECT_TRUE(interseq_supported(blosum()));
    EXPECT_TRUE(interseq_supported(
        ScoreMatrix::match_mismatch(Alphabet::dna(), 5, -4)));
    EXPECT_TRUE(interseq_supported(
        ScoreMatrix::match_mismatch(Alphabet::protein(), 127, -128)));
    EXPECT_LT(Alphabet::protein().size(),
              std::size_t{InterseqProfile::kPadCode});
}

TEST(InterseqSupport, Int8GateCannotBeTrippedByAConstructibleMatrix) {
    // The int8 profile needs every entry inside int8. The old gate
    // (max + bias <= 255) alone would admit min -150 with max 100, but
    // ScoreMatrix refuses such an entry when it is set, so no matrix can
    // reach the kernels — or fall back from them — for that reason.
    ScoreMatrix m(Alphabet::protein(), "wide");
    EXPECT_THROW(m.set(0, 1, -150), ContractError);
    EXPECT_THROW(m.set(0, 1, 128), ContractError);
    m.set(0, 1, -128);
    m.set(0, 0, 127);
    EXPECT_TRUE(interseq_supported(m));
}

TEST(InterseqKernels, Int8ExtremeEntriesMatchStripedAndOracle) {
    // Entries at both int8 ends: +127 matches flag every matching u8
    // lane (score + bias >= 255 at once), and -128 mismatches hit the
    // floor in one add. u8 flags and scores equal the striped kernel's;
    // the i16 scores equal the oracle's.
    Rng rng(109);
    const std::vector<Code> q = db::random_protein(rng, 60, "q").residues;
    const ScoreMatrix matrix =
        ScoreMatrix::match_mismatch(Alphabet::protein(), 127, -128);
    const InterseqProfile prof = build_interseq_profile(q, matrix);
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        const int H = lanes_i16(isa);
        auto subjects = random_subjects(rng, static_cast<std::size_t>(W), 5,
                                        80);
        subjects[0] = q;
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);
        ScanScratch scratch;
        InterseqColumnState state;
        std::uint8_t best8[64];
        std::int16_t best16[64];
        const std::uint64_t ovf8 = sw_interseq_u8_tiled(
            prof, cols.data(), columns, kGap, isa, scratch, state, best8);
        EXPECT_EQ(sw_interseq_i16_tiled(prof, cols.data(), columns, kGap, isa,
                                        scratch, state, nullptr, best16)
                      .overflow,
                  0u);
        const Profile8 p8 = build_profile8(q, matrix, W);
        for (int l = 0; l < W; ++l) {
            const StripedResult r = sw_striped_u8(p8, subjects[l], kGap, isa);
            EXPECT_EQ(static_cast<Score>(best8[l]), r.score)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
            EXPECT_EQ(((ovf8 >> l) & 1) != 0, r.overflow)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
        }
        EXPECT_TRUE(ovf8 & 1) << simd::to_string(isa);
        for (int l = 0; l < H; ++l) {
            EXPECT_EQ(static_cast<Score>(best16[l]),
                      sw_score_affine(q, subjects[l], matrix, kGap))
                << "isa=" << simd::to_string(isa) << " lane=" << l;
        }
    }
}

TEST(InterseqProfileTest, RowsHoldRawInt8ScoresAndPadDecays) {
    Rng rng(7);
    const std::vector<Code> q = db::random_protein(rng, 37, "q").residues;
    const InterseqProfile p = build_interseq_profile(q, blosum());
    EXPECT_EQ(p.query_len, q.size());
    EXPECT_EQ(p.bias, blosum().bias());
    for (std::size_t i = 0; i < q.size(); ++i) {
        const std::int8_t* row = p.row(i);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(row) %
                      InterseqProfile::kStride,
                  0u);
        for (Code a = 0; a < p.symbols; ++a) {
            EXPECT_EQ(row[a], blosum().at(q[i], a));
        }
        // Pad sentinel (and every unused slot) holds the most
        // penalising int8 score, so padded lanes can only decay.
        EXPECT_EQ(row[InterseqProfile::kPadCode], INT8_MIN);
    }
}

TEST(InterseqKernels, U8MatchesStripedAndOracleAcrossIsaLevels) {
    Rng rng(101);
    const std::vector<Code> q = db::random_protein(rng, 120, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        Rng srng(isa == simd::IsaLevel::Scalar ? 5u : 6u);
        // Length-diverse cohort: exercises early lane retirement.
        const auto subjects = random_subjects(
            srng, static_cast<std::size_t>(W), 5, 180);
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        InterseqColumnState state;
        std::uint8_t lane_best[64];
        const std::uint64_t ovf =
            sw_interseq_u8_tiled(prof, cols.data(), columns, kGap, isa,
                                 scratch, state, lane_best);

        const Profile8 p8 = build_profile8(q, blosum(), W);
        for (int l = 0; l < W; ++l) {
            const StripedResult r = sw_striped_u8(p8, subjects[l], kGap, isa);
            EXPECT_EQ(static_cast<Score>(lane_best[l]), r.score)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
            EXPECT_EQ(((ovf >> l) & 1) != 0, r.overflow)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
            if (!r.overflow) {
                EXPECT_EQ(static_cast<Score>(lane_best[l]),
                          sw_score_affine(q, subjects[l], blosum(), kGap));
            }
        }
    }
}

TEST(InterseqKernels, U8OverflowMaskFlagsSaturatedLanes) {
    Rng rng(103);
    // A long self-match saturates u8 (score >> 255 - bias).
    const std::vector<Code> q = db::random_protein(rng, 400, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        std::vector<std::vector<Code>> subjects =
            random_subjects(rng, static_cast<std::size_t>(W), 30, 60);
        subjects[1] = q;                        // planted overflow lane
        subjects[static_cast<std::size_t>(W) - 1] = q;
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        InterseqColumnState state;
        std::uint8_t lane_best[64];
        const std::uint64_t ovf =
            sw_interseq_u8_tiled(prof, cols.data(), columns, kGap, isa,
                                 scratch, state, lane_best);
        EXPECT_TRUE((ovf >> 1) & 1) << simd::to_string(isa);
        EXPECT_TRUE((ovf >> (W - 1)) & 1) << simd::to_string(isa);

        const Profile8 p8 = build_profile8(q, blosum(), W);
        for (int l = 0; l < W; ++l) {
            const StripedResult r = sw_striped_u8(p8, subjects[l], kGap, isa);
            EXPECT_EQ(((ovf >> l) & 1) != 0, r.overflow)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
            EXPECT_EQ(static_cast<Score>(lane_best[l]), r.score)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
        }
    }
}

TEST(InterseqKernels, PartialCohortPaddedLanesStayRetired) {
    Rng rng(105);
    const std::vector<Code> q = db::random_protein(rng, 90, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        // Only 3 real subjects: the remaining lanes are pure padding.
        const auto subjects = random_subjects(rng, 3, 40, 100);
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        InterseqColumnState state;
        std::uint8_t lane_best[64];
        const std::uint64_t ovf =
            sw_interseq_u8_tiled(prof, cols.data(), columns, kGap, isa,
                                 scratch, state, lane_best);
        for (std::size_t l = 0; l < 3; ++l) {
            EXPECT_EQ(static_cast<Score>(lane_best[l]),
                      sw_score_affine(q, subjects[l], blosum(), kGap));
        }
        for (int l = 3; l < W; ++l) {
            EXPECT_EQ(lane_best[l], 0) << "pad lane " << l;
            EXPECT_FALSE((ovf >> l) & 1) << "pad lane " << l;
        }
    }
}

TEST(InterseqKernels, I16MatchesStripedIncludingOverflowMask) {
    Rng rng(107);
    // match=60 over a 600-residue self-match scores 36000 > 32767: the
    // planted lane must trip the i16 overflow mask while the random
    // lanes stay exact. The kernel scores one i16 vector's lanes of the
    // u8-wide interleave, so the pack fills exactly those.
    const std::vector<Code> q = db::random_protein(rng, 600, "q").residues;
    const ScoreMatrix matrix =
        ScoreMatrix::match_mismatch(Alphabet::protein(), 60, -4);

    const InterseqProfile prof = build_interseq_profile(q, matrix);

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        const int H = lanes_i16(isa);
        std::vector<std::vector<Code>> subjects =
            random_subjects(rng, static_cast<std::size_t>(H), 100, 400);
        subjects[2] = q;  // saturates i16
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        InterseqColumnState state;
        std::int16_t lane_best[64];
        const std::uint64_t ovf =
            sw_interseq_i16_tiled(prof, cols.data(), columns, kGap, isa,
                                  scratch, state, nullptr, lane_best)
                .overflow;
        EXPECT_EQ(ovf >> H, 0u) << simd::to_string(isa);

        const Profile16 p16 = build_profile16(q, matrix, H);
        bool any_overflow = false;
        for (int l = 0; l < H; ++l) {
            const StripedResult r = sw_striped_i16(p16, subjects[l], kGap, isa);
            EXPECT_EQ(static_cast<Score>(lane_best[l]), r.score)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
            EXPECT_EQ(((ovf >> l) & 1) != 0, r.overflow)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
            any_overflow |= r.overflow;
            if (!r.overflow) {
                EXPECT_EQ(static_cast<Score>(lane_best[l]),
                          sw_score_affine(q, subjects[l], matrix, kGap));
            }
        }
        EXPECT_TRUE(any_overflow) << simd::to_string(isa);
    }
}

TEST(InterseqKernels, EmptyQueryAndEmptyCohortAreClean) {
    // qlen == 0 and columns == 0 must both return a clean zero result
    // from either width, without touching the carried column state.
    Rng rng(9);
    const InterseqProfile empty = build_interseq_profile({}, blosum());
    const InterseqProfile prof = build_interseq_profile(
        db::random_protein(rng, 20, "q2").residues, blosum());
    const std::vector<Code> cols(64, InterseqProfile::kPadCode);
    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        for (const auto& [p, columns] :
             {std::pair{&empty, std::size_t{1}},
              std::pair{&prof, std::size_t{0}}}) {
            ScanScratch scratch;
            InterseqColumnState state;
            std::uint8_t best8[64];
            std::int16_t best16[64];
            std::fill(best8, best8 + 64, std::uint8_t{7});
            std::fill(best16, best16 + 64, std::int16_t{7});
            EXPECT_EQ(sw_interseq_u8_tiled(*p, cols.data(), columns, kGap,
                                           isa, scratch, state, best8),
                      0u);
            EXPECT_EQ(sw_interseq_i16_tiled(*p, cols.data(), columns, kGap,
                                            isa, scratch, state, nullptr,
                                            best16)
                          .overflow,
                      0u);
            for (int l = 0; l < W; ++l) {
                EXPECT_EQ(best8[l], 0) << simd::to_string(isa);
            }
            for (int l = 0; l < lanes_i16(isa); ++l) {
                EXPECT_EQ(best16[l], 0) << simd::to_string(isa);
            }
            EXPECT_EQ(state.capacity(), 0u);
        }
    }
}

}  // namespace
}  // namespace swh::align
