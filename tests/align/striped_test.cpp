#include "align/striped.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "align/sw_scalar.hpp"
#include "db/generator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "tier_widths.hpp"

namespace swh::align {
namespace {

class StripedIsaTest : public ::testing::TestWithParam<simd::IsaLevel> {};

INSTANTIATE_TEST_SUITE_P(
    AllIsas, StripedIsaTest, ::testing::ValuesIn(test::host_widths()),
    [](const ::testing::TestParamInfo<simd::IsaLevel>& info) {
        return simd::to_string(info.param);
    });

TEST_P(StripedIsaTest, U8MatchesOracleOnRandomPairs) {
    for (const test::TierWidth& tw : test::tier_widths(GetParam())) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        Rng rng(101);
        const ScoreMatrix m = ScoreMatrix::blosum62();
        const GapPenalty gap{10, 2};
        for (int iter = 0; iter < 60; ++iter) {
            const auto q =
                db::random_protein(rng, 1 + rng.below(90)).residues;
            const auto d =
                db::random_protein(rng, 1 + rng.below(200)).residues;
            const Profile8 p = build_profile8(q, m, lanes_u8(isa));
            const StripedResult r = sw_striped_u8(p, d, gap, isa);
            ASSERT_FALSE(r.overflow)
                << "random short pairs should not saturate";
            EXPECT_EQ(r.score, sw_score_affine(q, d, m, gap))
                << "iter " << iter;
        }
        // Query lengths spanning segment counts 1..10 at this lane width,
        // so every short segment count and the lazy-F wrap are covered.
        const int lanes = lanes_u8(isa);
        for (int seg = 1; seg <= 10; ++seg) {
            const std::size_t qlen =
                static_cast<std::size_t>(seg * lanes) - rng.below(lanes);
            const auto q = db::random_protein(rng, qlen).residues;
            const Profile8 p = build_profile8(q, m, lanes);
            ASSERT_EQ(p.seg_len, static_cast<std::size_t>(seg));
            for (int iter = 0; iter < 8; ++iter) {
                const auto d =
                    db::random_protein(rng, 1 + rng.below(300)).residues;
                const StripedResult r = sw_striped_u8(p, d, gap, isa);
                ASSERT_FALSE(r.overflow) << "seg " << seg << " iter " << iter;
                EXPECT_EQ(r.score, sw_score_affine(q, d, m, gap))
                    << "seg " << seg << " iter " << iter;
            }
        }
    }
}

TEST_P(StripedIsaTest, I16MatchesOracleOnRandomPairs) {
    for (const test::TierWidth& tw : test::tier_widths(GetParam())) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        Rng rng(103);
        const ScoreMatrix m = ScoreMatrix::blosum62();
        const GapPenalty gap{10, 2};
        for (int iter = 0; iter < 60; ++iter) {
            const auto q =
                db::random_protein(rng, 1 + rng.below(150)).residues;
            const auto d =
                db::random_protein(rng, 1 + rng.below(300)).residues;
            const Profile16 p = build_profile16(q, m, lanes_i16(isa));
            const StripedResult r = sw_striped_i16(p, d, gap, isa);
            ASSERT_FALSE(r.overflow);
            EXPECT_EQ(r.score, sw_score_affine(q, d, m, gap))
                << "iter " << iter;
        }
    }
}

TEST_P(StripedIsaTest, U8DetectsOverflowOnSelfAlignment) {
    // A 60-residue tryptophan run self-aligns at 60*11 = 660 > 255.
    for (const test::TierWidth& tw : test::tier_widths(GetParam())) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const ScoreMatrix m = ScoreMatrix::blosum62();
        const std::vector<Code> w(60, Alphabet::protein().encode('W'));
        const Profile8 p = build_profile8(w, m, lanes_u8(isa));
        const StripedResult r = sw_striped_u8(p, w, {10, 2}, isa);
        EXPECT_TRUE(r.overflow);
    }
}

TEST_P(StripedIsaTest, I16HandlesScoresBeyond255) {
    for (const test::TierWidth& tw : test::tier_widths(GetParam())) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const ScoreMatrix m = ScoreMatrix::blosum62();
        const std::vector<Code> w(60, Alphabet::protein().encode('W'));
        const Profile16 p = build_profile16(w, m, lanes_i16(isa));
        const StripedResult r = sw_striped_i16(p, w, {10, 2}, isa);
        ASSERT_FALSE(r.overflow);
        EXPECT_EQ(r.score, 660);
    }
}

TEST_P(StripedIsaTest, HandlesGapHeavyOptimum) {
    // Force an optimum that needs F-loop propagation across segments: a
    // long query vs a subject that matches its two ends only.
    for (const test::TierWidth& tw : test::tier_widths(GetParam())) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        Rng rng(107);
        const ScoreMatrix m = ScoreMatrix::blosum62();
        const GapPenalty gap{2, 1};  // cheap gaps encourage long deletions
        for (int iter = 0; iter < 25; ++iter) {
            const auto head = db::random_protein(rng, 25).residues;
            const auto tail = db::random_protein(rng, 25).residues;
            std::vector<Code> q = head;
            const auto middle =
                db::random_protein(rng, 30 + rng.below(60)).residues;
            q.insert(q.end(), middle.begin(), middle.end());
            q.insert(q.end(), tail.begin(), tail.end());
            std::vector<Code> d = head;
            d.insert(d.end(), tail.begin(), tail.end());
            const Profile16 p = build_profile16(q, m, lanes_i16(isa));
            const StripedResult r = sw_striped_i16(p, d, gap, isa);
            ASSERT_FALSE(r.overflow);
            EXPECT_EQ(r.score, sw_score_affine(q, d, m, gap))
                << "iter " << iter;
        }
    }
}

TEST_P(StripedIsaTest, ZeroGapExtensionTerminates) {
    for (const test::TierWidth& tw : test::tier_widths(GetParam())) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        Rng rng(109);
        const ScoreMatrix m = ScoreMatrix::blosum62();
        const GapPenalty gap{4, 0};
        for (int iter = 0; iter < 10; ++iter) {
            const auto q = db::random_protein(rng, 40).residues;
            const auto d = db::random_protein(rng, 80).residues;
            const Profile16 p = build_profile16(q, m, lanes_i16(isa));
            const StripedResult r = sw_striped_i16(p, d, gap, isa);
            EXPECT_EQ(r.score, sw_score_affine(q, d, m, gap))
                << "iter " << iter;
        }
    }
}

TEST_P(StripedIsaTest, QueryShorterThanOneVector) {
    for (const test::TierWidth& tw : test::tier_widths(GetParam())) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const ScoreMatrix m = ScoreMatrix::blosum62();
        const auto q = Alphabet::protein().encode("MK");
        const auto d = Alphabet::protein().encode("AMKA");
        const Profile8 p = build_profile8(q, m, lanes_u8(isa));
        const StripedResult r = sw_striped_u8(p, d, {10, 2}, isa);
        EXPECT_EQ(r.score, sw_score_affine(q, d, m, {10, 2}));
    }
}

TEST_P(StripedIsaTest, EmptyInputsScoreZero) {
    for (const test::TierWidth& tw : test::tier_widths(GetParam())) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const ScoreMatrix m = ScoreMatrix::blosum62();
        const std::vector<Code> empty;
        const auto q = Alphabet::protein().encode("MKV");
        const Profile8 pe = build_profile8(empty, m, lanes_u8(isa));
        EXPECT_EQ(sw_striped_u8(pe, q, {10, 2}, isa).score, 0);
        const Profile8 pq = build_profile8(q, m, lanes_u8(isa));
        EXPECT_EQ(sw_striped_u8(pq, empty, {10, 2}, isa).score, 0);
    }
}

TEST_P(StripedIsaTest, AlignerEscalatesAndMatchesOracle) {
    for (const test::TierWidth& tw : test::tier_widths(GetParam())) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        Rng rng(113);
        const ScoreMatrix m = ScoreMatrix::blosum62();
        const GapPenalty gap{10, 2};

        // Mix benign subjects with one that overflows 8 bits.
        const auto q = db::random_protein(rng, 120).residues;
        std::vector<std::vector<Code>> subjects;
        for (int i = 0; i < 10; ++i) {
            subjects.push_back(db::random_protein(rng, 150).residues);
        }
        std::vector<Code> strong = q;  // exact copy: self-score ~ 120*5 > 255
        subjects.push_back(strong);

        const StripedAligner aligner(q, m, gap, isa);
        ScanScratch scratch;
        std::size_t runs8 = 0, runs16 = 0;
        for (const auto& d : subjects) {
            EXPECT_EQ(aligner.score(d), sw_score_affine(q, d, m, gap));
            // The escalation score() takes, read off the kernels' flags.
            if (!aligner.score_u8(d, scratch).overflow) {
                ++runs8;
            } else if (!aligner.score_i16(d, scratch).overflow) {
                ++runs16;
            }
        }
        EXPECT_GE(runs8, 10u);
        EXPECT_GE(runs16, 1u);  // the exact copy escalated
    }
}

TEST(StripedAllIsas, AgreeWithEachOther) {
    Rng rng(127);
    const ScoreMatrix m = ScoreMatrix::blosum62();
    const GapPenalty gap{10, 2};
    const auto pairs = test::tier_widths();
    for (int iter = 0; iter < 20; ++iter) {
        const auto q = db::random_protein(rng, 5 + rng.below(100)).residues;
        const auto d = db::random_protein(rng, 5 + rng.below(200)).residues;
        std::vector<Score> scores;
        for (const test::TierWidth& tw : pairs) {
            const simd::ScopedTier pin(tw.tier);
            const StripedAligner aligner(q, m, gap, tw.width);
            scores.push_back(aligner.score(d));
        }
        for (std::size_t i = 1; i < scores.size(); ++i) {
            EXPECT_EQ(scores[i], scores[0])
                << "iter " << iter << " " << pairs[i].label();
        }
    }
}

TEST_P(StripedIsaTest, AlignerRejectsNegativeGapPenalties) {
    // The u8 kernels would wrap a negative penalty into a large charge,
    // and the prefilter's bound is sound only for non-negative ones.
    for (const test::TierWidth& tw : test::tier_widths(GetParam())) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const ScoreMatrix m = ScoreMatrix::blosum62();
        const auto q = Alphabet::protein().encode("MKVLAWHE");
        EXPECT_THROW(StripedAligner(q, m, GapPenalty{-3, 2}, isa),
                     ContractError);
        EXPECT_THROW(StripedAligner(q, m, GapPenalty{10, -1}, isa),
                     ContractError);
        EXPECT_NO_THROW(StripedAligner(q, m, GapPenalty{0, 0}, isa));
    }
}

TEST(StripedProfile, LayoutMatchesDefinition) {
    // Check the striped layout directly: entry (a, i, l) must equal
    // matrix(query[l*seg+i], a) + bias.
    const ScoreMatrix m = ScoreMatrix::blosum62();
    const auto q = Alphabet::protein().encode("MKVLAWHEQNDRST");
    const int lanes = 4;  // deliberately small to exercise padding
    const Profile8 p = build_profile8(q, m, lanes);
    EXPECT_EQ(p.seg_len, (q.size() + 3) / 4);
    for (Code a = 0; a < 24; ++a) {
        const std::uint8_t* row = p.row(a);
        for (std::size_t i = 0; i < p.seg_len; ++i) {
            for (int l = 0; l < lanes; ++l) {
                const std::size_t pos = static_cast<std::size_t>(l) *
                                            p.seg_len + i;
                const int expected =
                    pos < q.size() ? m.at(q[pos], a) + p.bias : 0;
                EXPECT_EQ(row[i * lanes + l], expected);
            }
        }
    }
}

TEST(StripedProfile, ExtremeMatrixStillFits8Bit) {
    // int8-constrained entries always fit the biased 8-bit profile:
    // max + bias <= 127 + 128 = 255. Check the widest possible matrix.
    ScoreMatrix m(Alphabet::dna(), "wide");
    for (Code a = 0; a < 5; ++a)
        for (Code b = 0; b < 5; ++b) m.set(a, b, a == b ? 127 : -128);
    const auto q = Alphabet::dna().encode("ACGT");
    const Profile8 p = build_profile8(q, m, 16);
    EXPECT_EQ(p.bias, 128);
    EXPECT_EQ(p.max_entry, 255);
    // The kernel must immediately flag overflow risk on such a matrix.
    const auto d = Alphabet::dna().encode("ACGT");
    const StripedResult r =
        sw_striped_u8(p, d, {2, 1}, simd::IsaLevel::Scalar);
    EXPECT_TRUE(r.overflow);
}

}  // namespace
}  // namespace swh::align
