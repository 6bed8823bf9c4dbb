// Cross-aligner invariants: the aligner family forms a hierarchy of
// constraint relaxations, so their scores must be totally ordered for
// any input pair:
//
//   local (SW)  >=  global (NW)
//   local       ==  striped == lowmem == full traceback
//
// Violations of any of these caught real bugs during development.

#include <gtest/gtest.h>

#include "align/local_align.hpp"
#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "align/traceback.hpp"
#include "db/generator.hpp"
#include "util/rng.hpp"

namespace swh::align {
namespace {

struct Pair {
    std::vector<Code> a, b;
};

std::vector<Pair> random_pairs() {
    Rng rng(0xFA111);
    std::vector<Pair> out;
    for (int i = 0; i < 15; ++i) {
        out.push_back(Pair{
            db::random_protein(rng, 5 + rng.below(90)).residues,
            db::random_protein(rng, 5 + rng.below(90)).residues});
    }
    // Related pairs (shared block) stress the orderings harder.
    for (int i = 0; i < 10; ++i) {
        const auto shared = db::random_protein(rng, 30).residues;
        Pair p;
        p.a = db::random_protein(rng, 20).residues;
        p.a.insert(p.a.end(), shared.begin(), shared.end());
        p.b = shared;
        const auto tail = db::random_protein(rng, 25).residues;
        p.b.insert(p.b.end(), tail.begin(), tail.end());
        out.push_back(std::move(p));
    }
    return out;
}

class AlignerFamilyTest : public ::testing::TestWithParam<GapPenalty> {};

INSTANTIATE_TEST_SUITE_P(Gaps, AlignerFamilyTest,
                         ::testing::Values(GapPenalty{10, 2},
                                           GapPenalty{1, 1},
                                           GapPenalty{25, 3}),
                         [](const auto& info) {
                             return std::string("o")
                                 .append(std::to_string(info.param.open))
                                 .append("e")
                                 .append(std::to_string(info.param.extend));
                         });

TEST_P(AlignerFamilyTest, ScoreHierarchyHolds) {
    const GapPenalty gap = GetParam();
    const ScoreMatrix m = ScoreMatrix::blosum62();
    for (const Pair& p : random_pairs()) {
        const Score local = sw_score_affine(p.a, p.b, m, gap);
        const Score global = nw_align_affine(p.a, p.b, m, gap).score;

        // Global alignment is a restriction of local alignment.
        EXPECT_GE(local, global);
    }
}

TEST_P(AlignerFamilyTest, EquivalentImplementationsAgree) {
    const GapPenalty gap = GetParam();
    const ScoreMatrix m = ScoreMatrix::blosum62();
    for (const Pair& p : random_pairs()) {
        const Score local = sw_score_affine(p.a, p.b, m, gap);

        const StripedAligner striped(p.a, m, gap);
        EXPECT_EQ(striped.score(p.b), local);

        EXPECT_EQ(sw_align_affine(p.a, p.b, m, gap).score, local);
        EXPECT_EQ(sw_align_affine_lowmem(p.a, p.b, m, gap).score, local);
    }
}

TEST_P(AlignerFamilyTest, SelfAlignmentIsTheCeiling) {
    const GapPenalty gap = GetParam();
    const ScoreMatrix m = ScoreMatrix::blosum62();
    Rng rng(0xCE11);
    for (int i = 0; i < 10; ++i) {
        const auto a = db::random_protein(rng, 10 + rng.below(60)).residues;
        Score self = 0;
        for (const Code c : a) self += m.at(c, c);
        // Self alignment achieves the diagonal sum everywhere in the
        // family, and no other subject can beat it.
        EXPECT_EQ(sw_score_affine(a, a, m, gap), self);
        EXPECT_EQ(nw_align_affine(a, a, m, gap).score, self);
        const auto other =
            db::random_protein(rng, 10 + rng.below(60)).residues;
        EXPECT_LE(sw_score_affine(a, other, m, gap), self);
    }
}

}  // namespace
}  // namespace swh::align
