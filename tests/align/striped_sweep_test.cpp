// Property sweep: the striped kernels must agree with the scalar Gotoh
// oracle for every (gap model, ISA, alphabet) combination, not just the
// BLOSUM62 defaults. Parameterised across the full grid.

#include <gtest/gtest.h>

#include <tuple>

#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "db/generator.hpp"
#include "util/rng.hpp"
#include "tier_widths.hpp"

namespace swh::align {
namespace {

struct SweepCase {
    simd::IsaLevel isa;
    Score open;
    Score extend;
    bool dna;
};

std::vector<SweepCase> sweep_grid() {
    std::vector<SweepCase> out;
    for (const simd::IsaLevel isa : test::host_widths()) {
        for (const Score open : {0, 1, 5, 10, 40}) {
            for (const Score extend : {1, 2, 7}) {
                for (const bool dna : {false, true}) {
                    out.push_back(SweepCase{isa, open, extend, dna});
                }
            }
        }
    }
    return out;
}

class StripedSweepTest : public ::testing::TestWithParam<SweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, StripedSweepTest, ::testing::ValuesIn(sweep_grid()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
        const SweepCase& c = info.param;
        return std::string(simd::to_string(c.isa)) + "_o" +
               std::to_string(c.open) + "_e" + std::to_string(c.extend) +
               (c.dna ? "_dna" : "_prot");
    });

TEST_P(StripedSweepTest, AlignerMatchesOracle) {
    const SweepCase& c = GetParam();
    const ScoreMatrix matrix =
        c.dna ? ScoreMatrix::match_mismatch(Alphabet::dna(), 5, -4, 0)
              : ScoreMatrix::blosum62();
    const GapPenalty gap{c.open, c.extend};
    for (const test::TierWidth& tw : test::tier_widths(c.isa)) {
        const test::PinnedTier pin(tw);
        Rng rng(0xABCD ^ (static_cast<std::uint64_t>(c.open) << 8) ^
                static_cast<std::uint64_t>(c.extend));
        for (int iter = 0; iter < 12; ++iter) {
            const auto q =
                c.dna ? db::random_dna(rng, 1 + rng.below(120)).residues
                      : db::random_protein(rng, 1 + rng.below(120)).residues;
            const auto d =
                c.dna ? db::random_dna(rng, 1 + rng.below(250)).residues
                      : db::random_protein(rng, 1 + rng.below(250)).residues;
            const StripedAligner aligner(q, matrix, gap, c.isa);
            EXPECT_EQ(aligner.score(d), sw_score_affine(q, d, matrix, gap))
                << "iter " << iter;
        }
    }
}

TEST_P(StripedSweepTest, HomologousPairEscalatesCorrectly) {
    // A long shared region pushes u8 into overflow for most gap models;
    // the escalation path must still land on the oracle score.
    const SweepCase& c = GetParam();
    const ScoreMatrix matrix =
        c.dna ? ScoreMatrix::match_mismatch(Alphabet::dna(), 5, -4, 0)
              : ScoreMatrix::blosum62();
    const GapPenalty gap{c.open, c.extend};
    for (const test::TierWidth& tw : test::tier_widths(c.isa)) {
        const test::PinnedTier pin(tw);
        Rng rng(0x5151);
        const auto q = c.dna ? db::random_dna(rng, 150).residues
                             : db::random_protein(rng, 150).residues;
        auto d = q;  // exact copy: self score >> 255 for these matrices
        const StripedAligner aligner(q, matrix, gap, c.isa);
        EXPECT_EQ(aligner.score(d), sw_score_affine(q, d, matrix, gap));
    }
}

}  // namespace
}  // namespace swh::align
