// The gap-slack prefilter kernels (align/ungapped.hpp): the SIMD
// chain-bound kernels must match the scalar reference per lane across
// every ISA tier and width this host has — including row-range tiles — and
// the bound itself must dominate the exact gapped score on every pair,
// which is the property the scan funnel's pruning soundness rests on.

#include "align/ungapped.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "align/interseq.hpp"
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
        const std::size_t len = min_len + rng.below(max_len - min_len + 1);
        subjects.push_back(
            db::random_protein(rng, len, std::string("s").append(std::to_string(i))).residues);
    }
    return subjects;
}

TEST(UngappedBound, DominatesExactGappedScoreOnRandomPairs) {
    // The whole design hinges on this inequality: the monotone-row
    // chain bound T* is an upper bound on the affine-gapped score for
    // every (query, subject) pair, so a lane pruned because its bound
    // falls below the running k-th best provably cannot enter the
    // top-k.
    Rng rng(211);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t qlen = 10 + rng.below(240);
        const std::size_t slen = 5 + rng.below(400);
        const auto q = db::random_protein(rng, qlen, "q").residues;
        const auto s = db::random_protein(rng, slen, "s").residues;
        const Score bound = sw_ungapped_scalar(q, s, blosum(), kGap);
        const Score exact = sw_score_affine(q, s, blosum(), kGap);
        EXPECT_GE(bound, exact) << "trial " << trial << " qlen=" << qlen
                                << " slen=" << slen;
        EXPECT_GE(bound, 0);
    }
}

TEST(UngappedBound, DominatesOnHomologousPairs) {
    // Homologs (what the prefilter must NOT prune) score far above the
    // background; the bound has to track them from above too.
    Rng rng(213);
    db::MutationModel model;
    model.substitution_rate = 0.10;
    for (int trial = 0; trial < 10; ++trial) {
        const auto anchor = db::random_protein(rng, 150, "a");
        const auto hom =
            db::mutate(anchor, Alphabet::protein(), model, rng);
        const Score bound = sw_ungapped_scalar(anchor.residues, hom.residues,
                                               blosum(), kGap);
        const Score exact = sw_score_affine(anchor.residues, hom.residues,
                                            blosum(), kGap);
        EXPECT_GE(bound, exact);
        EXPECT_GT(exact, 100);  // the pair is a genuine homolog
    }
}

TEST(UngappedBound, TileSumDominatesGappedScore) {
    // Row-chunked form used for long queries: bounding disjoint query
    // row ranges separately and summing stays a sound upper bound
    // (splitting any alignment at tile boundaries yields legal
    // sub-chains, one per tile).
    Rng rng(217);
    const auto q = db::random_protein(rng, 300, "q").residues;
    for (int trial = 0; trial < 10; ++trial) {
        const auto s =
            db::random_protein(rng, 40 + rng.below(300), "s").residues;
        const Score exact = sw_score_affine(q, s, blosum(), kGap);
        for (const std::size_t rows : {64u, 100u, 256u}) {
            Score sum = 0;
            for (std::size_t r0 = 0; r0 < q.size(); r0 += rows) {
                const std::size_t n = std::min(rows, q.size() - r0);
                sum += sw_ungapped_scalar(
                    std::span<const Code>(q).subspan(r0, n), s, blosum(),
                    kGap);
            }
            EXPECT_GE(sum, exact) << "rows=" << rows << " trial=" << trial;
        }
    }
}

/// Gap configurations of the soundness suite: free gaps, a free open
/// or extension, the default, another common one, and restart charges
/// (open + extend) of 127, 128, 200, 255 and 300 around the int8
/// operand limit — the u8 kernel subtracts a charge above 127 in two
/// saturating steps — the last two with an extension of 127 and 128.
constexpr GapPenalty kGapConfigs[] = {{0, 0},    {1, 0},    {0, 1},
                                      {10, 2},   {11, 1},   {125, 2},
                                      {126, 2},  {190, 10}, {253, 2},
                                      {300, 2},  {0, 127},  {72, 128}};

/// A 120-residue query and 64 subjects against it, in turn: random
/// ones, gapped homologs of the whole query (which clip u8), and gapped
/// homologs of a 40-residue window of it (which stay inside u8).
struct GapSuite {
    std::vector<Code> query;
    std::vector<std::vector<Code>> subjects;
};

GapSuite gap_suite() {
    Rng rng(241);
    GapSuite suite;
    const align::Sequence q = db::random_protein(rng, 120, "q");
    suite.query = q.residues;
    align::Sequence window = q;
    window.residues.assign(q.residues.begin() + 40, q.residues.begin() + 80);
    db::MutationModel model;
    model.substitution_rate = 0.10;
    model.insertion_rate = 0.04;
    model.deletion_rate = 0.04;
    for (std::size_t i = 0; i < 64; ++i) {
        switch (i % 3) {
            case 0:
                suite.subjects.push_back(
                    db::random_protein(rng, 5 + rng.below(300), "r").residues);
                break;
            case 1:
                suite.subjects.push_back(
                    db::mutate(q, Alphabet::protein(), model, rng).residues);
                break;
            default:
                suite.subjects.push_back(
                    db::mutate(window, Alphabet::protein(), model, rng)
                        .residues);
        }
    }
    return suite;
}

TEST(UngappedBound, DominatesGotohAcrossGapConfigsOnEveryIsa) {
    // The pruning inequality for every gap configuration, on random and
    // on gapped homolog pairs: the scalar chain bound, which charges
    // open + extend per restart, is >= the exact Gotoh score, and so is
    // each ISA's u8 bound wherever it did not saturate.
    const GapSuite suite = gap_suite();
    const InterseqProfile prof = build_interseq_profile(suite.query, blosum());
    for (const GapPenalty gap : kGapConfigs) {
        const std::string config = std::to_string(gap.open) + "/" +
                                   std::to_string(gap.extend);
        std::vector<Score> exact;
        for (const auto& s : suite.subjects) {
            exact.push_back(sw_score_affine(suite.query, s, blosum(), gap));
            EXPECT_GE(sw_ungapped_scalar(suite.query, s, blosum(), gap),
                      exact.back())
                << "gap " << config << " subject " << exact.size() - 1;
        }
        for (const test::TierWidth& tw : test::tier_widths()) {
            const test::PinnedTier pin(tw);
            const simd::IsaLevel isa = tw.width;
            const int W = lanes_u8(isa);
            const std::vector<std::vector<Code>> lanes(
                suite.subjects.begin(), suite.subjects.begin() + W);
            std::size_t columns = 0;
            for (const auto& s : lanes) columns = std::max(columns, s.size());
            const std::vector<Code> cols = interleave(lanes, W, columns);
            ScanScratch scratch;
            std::uint8_t bound8[64];
            const std::uint64_t sat = sw_ungapped_interseq_u8(
                prof, cols.data(), columns, gap, isa, scratch, bound8);
            for (int l = 0; l < W; ++l) {
                if ((sat >> l) & 1) continue;
                EXPECT_GE(static_cast<Score>(bound8[l]),
                          exact[static_cast<std::size_t>(l)])
                    << "gap " << config << " isa=" << simd::to_string(isa)
                    << " lane=" << l;
            }
        }
    }
}

TEST(UngappedKernels, U8EqualsScalarWhereUnsaturatedAcrossGapConfigs) {
    // Every ISA's u8 kernel computes the scalar bound exactly wherever
    // it does not saturate — the charges above 127 included, which no
    // int8 operand holds. The suite has lanes on both sides of the u8
    // range at every width.
    const GapSuite suite = gap_suite();
    const InterseqProfile prof = build_interseq_profile(suite.query, blosum());
    for (const GapPenalty gap : kGapConfigs) {
        const std::string config = std::to_string(gap.open) + "/" +
                                   std::to_string(gap.extend);
        for (const test::TierWidth& tw : test::tier_widths()) {
            const test::PinnedTier pin(tw);
            const simd::IsaLevel isa = tw.width;
            const int W = lanes_u8(isa);
            const std::vector<std::vector<Code>> lanes(
                suite.subjects.begin(), suite.subjects.begin() + W);
            std::size_t columns = 0;
            for (const auto& s : lanes) columns = std::max(columns, s.size());
            const std::vector<Code> cols = interleave(lanes, W, columns);
            ScanScratch scratch;
            std::uint8_t bound8[64];
            const std::uint64_t sat = sw_ungapped_interseq_u8(
                prof, cols.data(), columns, gap, isa, scratch, bound8);
            int checked = 0;
            for (int l = 0; l < W; ++l) {
                if ((sat >> l) & 1) continue;
                ++checked;
                EXPECT_EQ(static_cast<Score>(bound8[l]),
                          sw_ungapped_scalar(
                              suite.query,
                              lanes[static_cast<std::size_t>(l)], blosum(),
                              gap))
                    << "gap " << config << " isa=" << simd::to_string(isa)
                    << " lane=" << l;
            }
            EXPECT_GT(checked, 0) << config << " " << simd::to_string(isa);
            EXPECT_NE(sat, 0u) << config << " " << simd::to_string(isa);
        }
    }
}

TEST(UngappedBound, OneRestartIsChargedOpenPlusExtend) {
    // Query WWWWWWWWWWCCCCCCCCCC against WWWWWWWWWWGGGGGCCCCCCCCCC: the
    // best chain aligns the W block, restarts once past the G insertion
    // and aligns the C block, so the bound is exactly
    // seg1 + seg2 - (open + extend) — not seg1 + seg2 - open. Every
    // single-diagonal path scores less (W-W shifted onto G, or C-G).
    const Alphabet& aa = Alphabet::protein();
    const std::vector<Code> q = aa.encode("WWWWWWWWWWCCCCCCCCCC");
    const std::vector<Code> s = aa.encode("WWWWWWWWWWGGGGGCCCCCCCCCC");
    const Score seg1 = 10 * blosum().at(aa.encode('W'), aa.encode('W'));
    const Score seg2 = 10 * blosum().at(aa.encode('C'), aa.encode('C'));
    const InterseqProfile prof = build_interseq_profile(q, blosum());
    for (const GapPenalty gap :
         {GapPenalty{10, 2}, GapPenalty{11, 1}, GapPenalty{0, 0}}) {
        const Score want = seg1 + seg2 - gap.cost(1);
        const std::string config = std::to_string(gap.open) + "/" +
                                   std::to_string(gap.extend);
        EXPECT_EQ(sw_ungapped_scalar(q, s, blosum(), gap), want) << config;
        EXPECT_LE(sw_score_affine(q, s, blosum(), gap), want) << config;
        for (const test::TierWidth& tw : test::tier_widths()) {
            const test::PinnedTier pin(tw);
            const simd::IsaLevel isa = tw.width;
            const int W = lanes_u8(isa);
            const std::vector<Code> cols = interleave({s}, W, s.size());
            ScanScratch scratch;
            std::uint8_t bound8[64];
            EXPECT_EQ(sw_ungapped_interseq_u8(prof, cols.data(), s.size(),
                                              gap, isa, scratch, bound8),
                      0u)
                << config << " " << simd::to_string(isa);
            EXPECT_EQ(static_cast<Score>(bound8[0]), want)
                << config << " " << simd::to_string(isa);
        }
    }
}

TEST(UngappedBound, RejectsNegativeGapPenalties) {
    const std::vector<Code> q = Alphabet::protein().encode("MKVL");
    EXPECT_THROW(sw_ungapped_scalar(q, q, blosum(), GapPenalty{-1, 2}),
                 ContractError);
    EXPECT_THROW(sw_ungapped_scalar(q, q, blosum(), GapPenalty{10, -2}),
                 ContractError);
}

TEST(UngappedKernels, U8MatchesScalarAcrossIsaLevels) {
    Rng rng(221);
    const auto q = db::random_protein(rng, 120, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        Rng srng(isa == simd::IsaLevel::Scalar ? 11u : 12u);
        auto subjects =
            random_subjects(srng, static_cast<std::size_t>(W), 5, 200);
        subjects[0] = q;  // self-match: the u8 bound must saturate
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        std::uint8_t bound8[64];
        const std::uint64_t sat = sw_ungapped_interseq_u8(
            prof, cols.data(), columns, kGap, isa, scratch, bound8);
        EXPECT_TRUE(sat & 1) << simd::to_string(isa);
        for (int l = 0; l < W; ++l) {
            if ((sat >> l) & 1) continue;  // no trusted bound claimed
            EXPECT_EQ(static_cast<Score>(bound8[l]),
                      sw_ungapped_scalar(q, subjects[static_cast<std::size_t>(
                                                l)],
                                         blosum(), kGap))
                << "isa=" << simd::to_string(isa) << " lane=" << l;
        }
    }
}

TEST(UngappedKernels, RowRangeMatchesScalarOnQuerySlice) {
    // The tiled prefilter calls the kernel with [row_begin, row_end)
    // sub-ranges of the query; each call must equal the scalar bound of
    // that query slice, so the per-lane tile sums inherit the tile-sum
    // soundness proof.
    Rng rng(227);
    const auto q = db::random_protein(rng, 210, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        Rng srng(17);
        const auto subjects =
            random_subjects(srng, static_cast<std::size_t>(W), 10, 150);
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        std::uint8_t bound8[64];
        constexpr std::size_t kRows = 70;
        for (std::size_t r0 = 0; r0 < q.size() + kRows; r0 += kRows) {
            const std::uint64_t sat = sw_ungapped_interseq_u8(
                prof, cols.data(), columns, kGap, isa, scratch, bound8, r0,
                r0 + kRows);
            if (r0 >= q.size()) {
                // Fully out-of-range tile: clean zeros, no saturation.
                EXPECT_EQ(sat, 0u);
                for (int l = 0; l < W; ++l) EXPECT_EQ(bound8[l], 0);
                continue;
            }
            const std::size_t n = std::min(kRows, q.size() - r0);
            for (int l = 0; l < W; ++l) {
                if ((sat >> l) & 1) continue;
                EXPECT_EQ(
                    static_cast<Score>(bound8[l]),
                    sw_ungapped_scalar(
                        std::span<const Code>(q).subspan(r0, n),
                        subjects[static_cast<std::size_t>(l)], blosum(),
                        kGap))
                    << "isa=" << simd::to_string(isa) << " lane=" << l
                    << " r0=" << r0;
            }
        }
    }
}

TEST(UngappedKernels, FilterTileCountBalancesRows) {
    EXPECT_EQ(filter_tile_count(0), 1u);
    EXPECT_EQ(filter_tile_count(kFilterTileRows), 1u);
    EXPECT_EQ(filter_tile_count(kFilterTileRows + 1), 2u);
    EXPECT_EQ(filter_tile_count(4 * kFilterTileRows + 7), 5u);
}

TEST(UngappedKernels, TiledSweepSumsScalarTileBounds) {
    // sw_ungapped_tiled_u8 is the sweep the scan funnel runs: per lane,
    // the sum of the scalar bounds of the filter_tile_count() balanced
    // query slices, and a lane saturated in any tile is flagged.
    Rng rng(241);
    const auto q =
        db::random_protein(rng, 2 * kFilterTileRows + 37, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());
    const std::size_t tiles = filter_tile_count(q.size());
    ASSERT_EQ(tiles, 3u);
    const std::size_t rows = (q.size() + tiles - 1) / tiles;

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        auto subjects =
            random_subjects(rng, static_cast<std::size_t>(W), 20, 400);
        subjects[1] = q;  // self-match: saturates every tile
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        Score bound[64];
        const std::uint64_t sat =
            sw_ungapped_tiled_u8(prof, cols.data(), columns, kGap, isa,
                                 scratch, /*tau=*/0, bound)
                .saturated;
        EXPECT_TRUE((sat >> 1) & 1) << simd::to_string(isa);
        for (int l = 0; l < W; ++l) {
            if ((sat >> l) & 1) continue;
            Score sum = 0;
            for (std::size_t r0 = 0; r0 < q.size(); r0 += rows) {
                sum += sw_ungapped_scalar(
                    std::span<const Code>(q).subspan(
                        r0, std::min(rows, q.size() - r0)),
                    subjects[static_cast<std::size_t>(l)], blosum(), kGap);
            }
            EXPECT_EQ(bound[l], sum)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
        }
    }
}

/// Scalar reference of the balanced prefilter tiling: the per-lane sum
/// of the exact chain bounds of the filter_tile_count() query slices.
Score scalar_tile_sum(const std::vector<Code>& q, const std::vector<Code>& s) {
    const std::size_t tiles = filter_tile_count(q.size());
    const std::size_t rows = (q.size() + tiles - 1) / tiles;
    Score sum = 0;
    for (std::size_t r0 = 0; r0 < q.size(); r0 += rows) {
        sum += sw_ungapped_scalar(
            std::span<const Code>(q).subspan(r0,
                                             std::min(rows, q.size() - r0)),
            s, blosum(), kGap);
    }
    return sum;
}

/// Scalar reference of the composition cap.
Score scalar_cap(const InterseqProfile& prof, const std::vector<Code>& s) {
    Score cap = 0;
    for (const Code c : s) cap += prof.col_cap[c];
    return cap;
}

TEST(UngappedKernels, EarlyExitPrunesOnlyBelowTauAcrossIsaLevels) {
    // The early-exit sweep over random and planted cohorts, tau swept
    // from "no threshold" to above the homologs' scores. With tau <= 0
    // every tile is swept and the plain tile sums come back; with
    // tau > 0 a lane returned below tau must score below tau exactly
    // (the pruning soundness), the survivors must be those of a full
    // sweep capped by the composition cap, and a high tau must leave
    // tiles unswept.
    Rng rng(251);
    const auto q =
        db::random_protein(rng, 2 * kFilterTileRows + 51, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());
    const std::size_t tiles = filter_tile_count(q.size());
    ASSERT_EQ(tiles, 3u);
    db::MutationModel model;
    model.substitution_rate = 0.30;

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        const std::string label = simd::to_string(isa);
        // Random lanes of 15-600 residues, every fourth lane a homolog
        // of the query, and the top quarter of the width left as pad.
        const std::size_t used = static_cast<std::size_t>(W) * 3 / 4;
        auto subjects = random_subjects(rng, used, 15, 600);
        for (std::size_t l = 0; l < used; l += 4) {
            subjects[l] = db::mutate(Sequence{"h", "", q}, Alphabet::protein(),
                                     model, rng)
                              .residues;
        }
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);
        std::vector<Score> exact, full, cap;
        Score top = 0;
        for (const auto& s : subjects) {
            exact.push_back(sw_score_affine(q, s, blosum(), kGap));
            full.push_back(scalar_tile_sum(q, s));
            cap.push_back(scalar_cap(prof, s));
            top = std::max(top, exact.back());
        }
        ASSERT_GT(top, 255) << label;  // the homologs stand out

        ScanScratch scratch;
        Score bound[64];
        std::size_t pruned = 0, kept_total = 0;
        for (const Score tau : {-5, 0, 1, 40, 90, 150, 250, 400, top,
                                top + 1, top + 300, 100000}) {
            const FilterSweep sweep = sw_ungapped_tiled_u8(
                prof, cols.data(), columns, kGap, isa, scratch, tau, bound);
            const std::string at = label + " tau=" + std::to_string(tau);
            EXPECT_EQ(sweep.tiles + sweep.tiles_skipped, tiles) << at;
            // A full sweep of the same cohort: which lanes saturate.
            Score plain[64];
            const FilterSweep all = sw_ungapped_tiled_u8(
                prof, cols.data(), columns, kGap, isa, scratch, 0, plain);
            for (std::size_t l = 0; l < used; ++l) {
                const bool clipped = ((all.saturated >> l) & 1) != 0;
                if (tau <= 0) {
                    EXPECT_EQ(sweep.tiles, tiles) << at;
                    if (!clipped) {
                        EXPECT_EQ(bound[l], full[l]) << at << " lane=" << l;
                    }
                    continue;
                }
                const bool kept = ((sweep.saturated >> l) & 1) != 0 ||
                                  bound[l] >= tau;
                if (!kept) {
                    EXPECT_LT(exact[l], tau) << at << " lane=" << l;
                }
                (kept ? kept_total : pruned) += 1;
                if (!clipped) {
                    EXPECT_EQ(kept, std::min(full[l], cap[l]) >= tau)
                        << at << " lane=" << l;
                }
            }
            if (tau > 0) {
                // Pad lanes carry a zero cap and are pruned outright.
                for (int l = static_cast<int>(used); l < W; ++l) {
                    EXPECT_LT(bound[l], tau) << at << " pad lane=" << l;
                    EXPECT_EQ((sweep.saturated >> l) & 1, 0u) << at;
                }
            }
            if (tau > top + 250) {
                EXPECT_GT(sweep.tiles_skipped, 0u) << at;
            }
        }
        EXPECT_GT(pruned, 0u) << label;
        EXPECT_GT(kept_total, 0u) << label;
    }
}

TEST(UngappedKernels, ResumedSweepMatchesOneFullCall) {
    // The scan funnel probes a cohort's first filter tile before tau
    // exists and resumes the sweep at the second tile later, handing
    // the tile-1 bounds back in lane_bound. Resumed, the sweep must
    // return exactly the bounds, saturated mask and tile counts of one
    // call from row 0 — the probe's tile counted once — on a multi-tile
    // query and on a single-tile one (where resuming only decides).
    Rng rng(263);
    for (const std::size_t qlen : {2 * kFilterTileRows + 51, std::size_t{100}}) {
        const auto q = db::random_protein(rng, qlen, "q").residues;
        const InterseqProfile prof = build_interseq_profile(q, blosum());
        const std::size_t rows = filter_tile_rows(qlen);
        const std::size_t tiles = filter_tile_count(qlen);
        for (const test::TierWidth& tw : test::tier_widths()) {
            const test::PinnedTier pin(tw);
            const simd::IsaLevel isa = tw.width;
            const int W = lanes_u8(isa);
            const std::string label =
                std::string(simd::to_string(isa)) +
                " qlen=" + std::to_string(qlen);
            auto subjects =
                random_subjects(rng, static_cast<std::size_t>(W), 20, 500);
            // On a multi-tile query, lanes 0 and 1 carry a verbatim copy
            // of the query rows past the first tile: they clip a later
            // tile, never the probed one.
            if (tiles > 1) {
                for (std::size_t l = 0; l < 2; ++l) {
                    subjects[l].assign(q.begin() + static_cast<std::ptrdiff_t>(rows),
                                       q.end());
                }
            }
            std::size_t columns = 0;
            for (const auto& s : subjects) {
                columns = std::max(columns, s.size());
            }
            const std::vector<Code> cols = interleave(subjects, W, columns);

            ScanScratch scratch;
            std::uint8_t probe[64];
            ASSERT_EQ(sw_ungapped_interseq_u8(prof, cols.data(), columns,
                                              kGap, isa, scratch, probe, 0,
                                              rows),
                      0u)
                << label;
            std::size_t compared = 0;
            bool saturated_seen = false;
            for (const Score tau : {-5, 0, 1, 40, 90, 150, 250, 400, 1000,
                                    100000}) {
                const std::string at = label + " tau=" + std::to_string(tau);
                Score full[64];
                const FilterSweep one = sw_ungapped_tiled_u8(
                    prof, cols.data(), columns, kGap, isa, scratch, tau, full);
                // A cohort decided before its first tile is never probed
                // and resumed; nothing to compare.
                if (one.tiles == 0) continue;
                ++compared;
                Score resumed[64];
                std::copy_n(probe, W, resumed);
                const FilterSweep rest = sw_ungapped_tiled_u8(
                    prof, cols.data(), columns, kGap, isa, scratch, tau,
                    resumed, rows);
                EXPECT_EQ(rest.tiles + 1, one.tiles) << at;
                EXPECT_EQ(rest.tiles_skipped, one.tiles_skipped) << at;
                EXPECT_EQ(rest.saturated, one.saturated) << at;
                saturated_seen |= one.saturated != 0;
                for (int l = 0; l < W; ++l) {
                    EXPECT_EQ(resumed[l], full[l]) << at << " lane=" << l;
                }
                if (tiles == 1) {
                    EXPECT_EQ(rest.tiles, 0u) << at;
                }

                // Lanes outside `lanes` are neither reported saturated
                // nor keep the sweep going.
                std::copy_n(probe, W, resumed);
                const FilterSweep masked = sw_ungapped_tiled_u8(
                    prof, cols.data(), columns, kGap, isa, scratch, tau,
                    resumed, rows, ~std::uint64_t{3});
                EXPECT_EQ(masked.saturated & 3u, 0u) << at;
                EXPECT_LE(masked.tiles, rest.tiles) << at;
            }
            EXPECT_GT(compared, 3u) << label;
            if (tiles > 1) {
                EXPECT_TRUE(saturated_seen) << label;
            }
        }
    }
}

TEST(UngappedKernels, CompositionCapIsExactPastTheI16Range) {
    // Trp-rich subjects longer than one i16 accumulator chunk (32767 /
    // max_raw columns): a cap that wrapped or clipped at 32767 would
    // fall below a tau the lane's true score clears and prune it.
    const Code w = Alphabet::protein().encode('W');
    const std::vector<Code> q(3200, w);
    const InterseqProfile prof = build_interseq_profile(q, blosum());
    ASSERT_EQ(prof.col_cap[w], 11);
    Rng rng(257);
    const std::vector<Code> w3500(3500, w);
    const Score self = sw_score_affine(q, w3500, blosum(), kGap);
    ASSERT_EQ(self, 3200 * 11);
    const Score tau = 34000;  // past the i16 range, below the true score
    ASSERT_GT(tau, 32767);
    ASSERT_LE(tau, self);

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        const std::string label = simd::to_string(isa);
        // Lane 0: 3500 W; lane 1: 7000 W; lane 2: 6000 residues, one in
        // three W; lane 3: a short random subject.
        std::vector<std::vector<Code>> subjects = {w3500,
                                                   std::vector<Code>(7000, w)};
        std::vector<Code> mixed =
            db::random_protein(rng, 6000, "m").residues;
        for (std::size_t j = 0; j < mixed.size(); j += 3) mixed[j] = w;
        subjects.push_back(mixed);
        subjects.push_back(db::random_protein(rng, 80, "r").residues);
        const std::vector<Code> cols = interleave(subjects, W, 7000);

        Score cap[64];
        sw_composition_cap(prof, cols.data(), 7000, isa, cap);
        for (std::size_t l = 0; l < subjects.size(); ++l) {
            EXPECT_EQ(cap[l], scalar_cap(prof, subjects[l]))
                << label << " lane=" << l;
        }
        for (int l = static_cast<int>(subjects.size()); l < W; ++l) {
            EXPECT_EQ(cap[l], 0) << label << " pad lane=" << l;
        }
        EXPECT_EQ(cap[1], 7000 * 11) << label;

        ScanScratch scratch;
        Score bound[64];
        const FilterSweep sweep = sw_ungapped_tiled_u8(
            prof, cols.data(), 7000, kGap, isa, scratch, tau, bound);
        for (std::size_t l = 0; l < 2; ++l) {
            EXPECT_TRUE(((sweep.saturated >> l) & 1) != 0 || bound[l] >= tau)
                << label << ": Trp lane " << l << " pruned";
        }
        // The short random lane cannot reach tau; its cap says so before
        // any tile, and the saturated Trp lanes decide in the first one.
        EXPECT_LT(bound[3], tau) << label;
        EXPECT_EQ(sweep.tiles, 1u) << label;
    }
}

TEST(UngappedKernels, BoundDominatesStripedExactPerLane) {
    // End-to-end per-lane check of the pruning inequality in the exact
    // layout the scanner uses: kernel bound >= striped exact score for
    // every non-saturated lane.
    Rng rng(229);
    const auto q = db::random_protein(rng, 100, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        const auto subjects =
            random_subjects(rng, static_cast<std::size_t>(W), 10, 250);
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        std::uint8_t bound8[64];
        const std::uint64_t sat = sw_ungapped_interseq_u8(
            prof, cols.data(), columns, kGap, isa, scratch, bound8);
        const Profile8 p8 = build_profile8(q, blosum(), W);
        for (int l = 0; l < W; ++l) {
            if ((sat >> l) & 1) continue;
            const StripedResult r = sw_striped_u8(
                p8, subjects[static_cast<std::size_t>(l)], kGap, isa);
            if (r.overflow) continue;
            EXPECT_GE(static_cast<Score>(bound8[l]), r.score)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
        }
    }
}

TEST(UngappedKernels, EmptyQueryAndEmptyCohortAreClean) {
    ScanScratch scratch;
    std::uint8_t bound8[64];
    std::vector<Code> cols(64, InterseqProfile::kPadCode);

    const InterseqProfile empty_prof =
        build_interseq_profile({}, blosum());
    EXPECT_EQ(sw_ungapped_interseq_u8(empty_prof, cols.data(), 1, kGap,
                                      simd::IsaLevel::Scalar, scratch,
                                      bound8),
              0u);
    for (int l = 0; l < 16; ++l) EXPECT_EQ(bound8[l], 0);

    Rng rng(239);
    const auto q = db::random_protein(rng, 25, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());
    EXPECT_EQ(sw_ungapped_interseq_u8(prof, cols.data(), 0, kGap,
                                      simd::IsaLevel::Scalar, scratch,
                                      bound8),
              0u);
    for (int l = 0; l < 16; ++l) EXPECT_EQ(bound8[l], 0);
    EXPECT_EQ(sw_ungapped_scalar({}, {}, blosum(), kGap), 0);
}

}  // namespace
}  // namespace swh::align
