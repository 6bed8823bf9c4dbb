// Golden equivalence of the query-tiled inter-sequence kernels. They
// promise BIT-identical scores and overflow masks to the striped
// kernels (and hence to the scalar oracle): tiling changes the order
// cells are visited in, not the dataflow, and every op is per-cell
// saturating. The suite pins that promise down at every ISA tier and
// width the host has, right at the tile boundaries (qlen one below / at / one above a
// tile multiple), with saturation that must be carried across tiles,
// and with carried-state reuse between calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "db/generator.hpp"
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

TEST(InterseqTileCount, BalancedTileBoundaries) {
    EXPECT_EQ(interseq_tile_count(0), 1u);
    EXPECT_EQ(interseq_tile_count(1), 1u);
    EXPECT_EQ(interseq_tile_count(kInterseqTileRows - 1), 1u);
    EXPECT_EQ(interseq_tile_count(kInterseqTileRows), 1u);
    EXPECT_EQ(interseq_tile_count(kInterseqTileRows + 1), 2u);
    EXPECT_EQ(interseq_tile_count(2 * kInterseqTileRows), 2u);
    EXPECT_EQ(interseq_tile_count(2 * kInterseqTileRows + 1), 3u);
    EXPECT_EQ(interseq_tile_count(4 * kInterseqTileRows + 7), 5u);
}

TEST(InterseqTiledKernels, U8MatchesStripedAtTileBoundaries) {
    // A one-row query, then one query row below, at, and above each
    // tile boundary, plus a multi-tile length with a ragged last tile:
    // the one-tile case and the carried H/F hand-off are exercised with
    // full, exactly-full, and barely-spilling tiles.
    const std::size_t qlens[] = {
        1,                         kInterseqTileRows - 1,
        kInterseqTileRows,         kInterseqTileRows + 1,
        2 * kInterseqTileRows,     2 * kInterseqTileRows + 1,
        2048 + 7};
    std::uint32_t seed = 211;
    for (const std::size_t qlen : qlens) {
        Rng rng(seed++);
        const std::vector<Code> q =
            db::random_protein(rng, qlen, "q").residues;
        const InterseqProfile prof = build_interseq_profile(q, blosum());

        for (const test::TierWidth& tw : test::tier_widths()) {
            const test::PinnedTier pin(tw);
            const simd::IsaLevel isa = tw.width;
            const int W = lanes_u8(isa);
            Rng srng(seed + static_cast<std::uint32_t>(W));
            const auto subjects = random_subjects(
                srng, static_cast<std::size_t>(W), 5, 180);
            std::size_t columns = 0;
            for (const auto& s : subjects) {
                columns = std::max(columns, s.size());
            }
            const std::vector<Code> cols = interleave(subjects, W, columns);

            ScanScratch scratch;
            InterseqColumnState state;
            std::uint8_t best[64];
            const std::uint64_t ovf =
                sw_interseq_u8_tiled(prof, cols.data(), columns, kGap, isa,
                                     scratch, state, best);

            const Profile8 p8 = build_profile8(q, blosum(), W);
            for (int l = 0; l < W; ++l) {
                const StripedResult r =
                    sw_striped_u8(p8, subjects[l], kGap, isa);
                EXPECT_EQ(static_cast<Score>(best[l]), r.score)
                    << "isa=" << simd::to_string(isa) << " qlen=" << qlen
                    << " lane=" << l;
                EXPECT_EQ(((ovf >> l) & 1) != 0, r.overflow)
                    << "isa=" << simd::to_string(isa) << " qlen=" << qlen
                    << " lane=" << l;
                if (!r.overflow) {
                    EXPECT_EQ(static_cast<Score>(best[l]),
                              sw_score_affine(q, subjects[l], blosum(), kGap))
                        << "isa=" << simd::to_string(isa) << " qlen=" << qlen
                        << " lane=" << l;
                }
            }
        }
    }
}

TEST(InterseqTiledKernels, U8SaturationCarriesAcrossTiles) {
    Rng rng(223);
    // A 3-tile self-match: the score climbs past u8 saturation well
    // before the final tile, so the saturated H rows — and the
    // overflow verdict — must survive the inter-tile hand-off.
    const std::size_t qlen = 2 * kInterseqTileRows + 100;
    const std::vector<Code> q = db::random_protein(rng, qlen, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        std::vector<std::vector<Code>> subjects =
            random_subjects(rng, static_cast<std::size_t>(W), 30, 60);
        subjects[0] = q;  // planted overflow lane
        subjects[static_cast<std::size_t>(W) - 1] = q;
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        InterseqColumnState state;
        std::uint8_t best[64];
        const std::uint64_t ovf = sw_interseq_u8_tiled(
            prof, cols.data(), columns, kGap, isa, scratch, state, best);

        EXPECT_TRUE((ovf >> 0) & 1) << simd::to_string(isa);
        EXPECT_TRUE((ovf >> (W - 1)) & 1) << simd::to_string(isa);
        const Profile8 p8 = build_profile8(q, blosum(), W);
        for (int l = 0; l < W; ++l) {
            const StripedResult r = sw_striped_u8(p8, subjects[l], kGap, isa);
            EXPECT_EQ(static_cast<Score>(best[l]), r.score)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
            EXPECT_EQ(((ovf >> l) & 1) != 0, r.overflow)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
        }
    }
}

TEST(InterseqTiledKernels, I16MatchesStripedAcrossTiles) {
    Rng rng(227);
    // Wide-lane rescue path for long queries: the i16 kernel scores one
    // i16 vector's lanes of the u8 layout and carries one i16 vector
    // per column across tiles. One planted self-match lane saturates
    // even i16 — its self score is ~60 * qlen, so qlen must clear
    // 32767 / 60 regardless of where the tile boundary sits.
    const std::size_t qlen =
        std::max<std::size_t>(2 * kInterseqTileRows + 31, 560);
    const std::vector<Code> q = db::random_protein(rng, qlen, "q").residues;
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
        std::int16_t best[64];
        const std::uint64_t ovf =
            sw_interseq_i16_tiled(prof, cols.data(), columns, kGap, isa,
                                  scratch, state, nullptr, best)
                .overflow;
        EXPECT_EQ(ovf >> H, 0u) << simd::to_string(isa);

        const Profile16 p16 = build_profile16(q, matrix, H);
        bool any_overflow = false;
        for (int l = 0; l < H; ++l) {
            const StripedResult r =
                sw_striped_i16(p16, subjects[l], kGap, isa);
            EXPECT_EQ(static_cast<Score>(best[l]), r.score)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
            EXPECT_EQ(((ovf >> l) & 1) != 0, r.overflow)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
            any_overflow |= r.overflow;
            if (!r.overflow) {
                EXPECT_EQ(static_cast<Score>(best[l]),
                          sw_score_affine(q, subjects[l], matrix, kGap));
            }
        }
        EXPECT_TRUE(any_overflow) << simd::to_string(isa);
    }
}

TEST(InterseqTiledKernels, I16GroupBitIdenticalAtEveryWidthThatHoldsIt) {
    // The scanner's stage-3 drain packs each cliff group, at most one
    // i16 vector's lanes, at the narrowest width whose i16 vector holds
    // it. A group of n lanes must score the same at every width it fits
    // — per-lane scores and overflow bits alike — and match the scalar
    // oracle; a build without AVX2 checks only the groups of at most 8.
    // Lane n/2 is a long near-self match that saturates i16 (~60 per
    // residue over 600 rows), so a narrow group's overflow bit is
    // pinned down too.
    Rng rng(239);
    const std::size_t qlen = 600;
    const std::vector<Code> q = db::random_protein(rng, qlen, "q").residues;
    const ScoreMatrix matrix =
        ScoreMatrix::match_mismatch(Alphabet::protein(), 60, -4);
    const InterseqProfile prof = build_interseq_profile(q, matrix);
    std::vector<Code> near_self = q;
    for (std::size_t i = 50; i < qlen; i += 100) {
        near_self[i] = static_cast<Code>((near_self[i] + 1) % prof.symbols);
    }

    const std::size_t groups[] = {1, 7, 8, 9, 15, 16, 17, 31, 32};
    for (const std::size_t n : groups) {
        auto subjects = random_subjects(rng, n, 100, 400);
        subjects[n / 2] = near_self;
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());

        bool first = true;
        std::int16_t want[64];
        std::uint64_t want_ovf = 0;
        for (const test::TierWidth& tw : test::tier_widths()) {
            const test::PinnedTier pin(tw);
            const simd::IsaLevel isa = tw.width;
            if (static_cast<std::size_t>(lanes_i16(isa)) < n) continue;
            const std::vector<Code> cols =
                interleave(subjects, lanes_u8(isa), columns);
            ScanScratch scratch;
            InterseqColumnState state;
            std::int16_t best[64];
            const std::uint64_t ovf =
                sw_interseq_i16_tiled(prof, cols.data(), columns, kGap, isa,
                                      scratch, state, nullptr, best)
                    .overflow;
            const std::string label = "isa=" +
                                      std::string(simd::to_string(isa)) +
                                      " n=" + std::to_string(n);
            EXPECT_TRUE((ovf >> (n / 2)) & 1) << label;
            if (first) {
                first = false;
                want_ovf = ovf;
                std::copy_n(best, n, want);
                for (std::size_t l = 0; l < n; ++l) {
                    if ((ovf >> l) & 1) continue;
                    EXPECT_EQ(static_cast<Score>(best[l]),
                              sw_score_affine(q, subjects[l], matrix, kGap))
                        << label << " lane=" << l;
                }
                continue;
            }
            EXPECT_EQ(ovf, want_ovf) << label;
            for (std::size_t l = 0; l < n; ++l) {
                EXPECT_EQ(best[l], want[l]) << label << " lane=" << l;
            }
        }
    }
}

/// Gap configurations around the int8 operand limit: open + extend of
/// 127, 128, 200, 255 and 300, then extend alone of 127 and 128 (the
/// last with open + extend 200). The u8 kernels subtract a charge above
/// 127 in two saturating steps.
constexpr GapPenalty kWideGaps[] = {{125, 2}, {126, 2}, {190, 10},
                                    {253, 2}, {298, 2}, {0, 127},
                                    {0, 128}, {72, 128}};

/// `n` subjects that each split a window of `q` around row `center`
/// (+- a few rows) with one gap: lane l keeps 8 + 70 l / n query
/// residues on either side and inserts 1-3 residues (even l) or deletes
/// one (odd l). The window lengths, so the segment scores, sweep from
/// below every charge to far above it, and the lengths are ragged.
std::vector<std::vector<Code>> split_windows(const std::vector<Code>& q,
                                             std::size_t center,
                                             std::size_t n, Rng& rng) {
    std::vector<std::vector<Code>> subjects;
    for (std::size_t l = 0; l < n; ++l) {
        const std::size_t half = 8 + 70 * l / n;
        const std::size_t c = center - 2 + l % 5;
        std::vector<Code> s(q.begin() + static_cast<std::ptrdiff_t>(c - half),
                            q.begin() + static_cast<std::ptrdiff_t>(c));
        std::size_t resume = c;
        if (l % 2 == 0) {
            for (std::size_t k = 0; k <= l % 3; ++k) {
                s.push_back(static_cast<Code>(rng.below(20)));
            }
        } else {
            ++resume;
        }
        s.insert(s.end(), q.begin() + static_cast<std::ptrdiff_t>(resume),
                 q.begin() + static_cast<std::ptrdiff_t>(resume + half));
        subjects.push_back(std::move(s));
    }
    return subjects;
}

TEST(InterseqTiledKernels, ExactAtWideGapChargesOnEveryIsa) {
    // Every gap charge is exact, also where it is no single int8
    // operand: u8 scores and flags equal the striped u8 kernel's, and
    // every unflagged u8 lane and every i16 lane equals the Gotoh
    // oracle. The gapped windows sit on the first tile boundary, the
    // cohort's last three lanes are padding, and the segment scores
    // straddle each charge, so a loosened E, F or H charge would show.
    Rng rng(251);
    const std::size_t qlen = 2 * kInterseqTileRows + 40;
    const std::vector<Code> q = db::random_protein(rng, qlen, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());
    for (const GapPenalty gap : kWideGaps) {
        const std::string config = std::to_string(gap.open) + "/" +
                                   std::to_string(gap.extend);
        for (const test::TierWidth& tw : test::tier_widths()) {
            const test::PinnedTier pin(tw);
            const simd::IsaLevel isa = tw.width;
            const int W = lanes_u8(isa);
            const int H = lanes_i16(isa);
            const std::string label =
                "gap " + config + " isa=" + simd::to_string(isa);
            const auto subjects = split_windows(
                q, kInterseqTileRows, static_cast<std::size_t>(W) - 3, rng);
            std::size_t columns = 0;
            for (const auto& s : subjects) {
                columns = std::max(columns, s.size());
            }
            const std::vector<Code> cols = interleave(subjects, W, columns);
            ScanScratch scratch;
            InterseqColumnState state;
            std::uint8_t best8[64];
            const std::uint64_t ovf8 = sw_interseq_u8_tiled(
                prof, cols.data(), columns, gap, isa, scratch, state, best8);
            const Profile8 p8 = build_profile8(q, blosum(), W);
            int exact8 = 0;
            for (std::size_t l = 0; l < subjects.size(); ++l) {
                const StripedResult r =
                    sw_striped_u8(p8, subjects[l], gap, isa);
                EXPECT_EQ(static_cast<Score>(best8[l]), r.score)
                    << label << " lane=" << l;
                EXPECT_EQ(((ovf8 >> l) & 1) != 0, r.overflow)
                    << label << " lane=" << l;
                if (r.overflow) continue;
                ++exact8;
                EXPECT_EQ(static_cast<Score>(best8[l]),
                          sw_score_affine(q, subjects[l], blosum(), gap))
                    << label << " lane=" << l;
            }
            for (int l = static_cast<int>(subjects.size()); l < W; ++l) {
                EXPECT_EQ(best8[l], 0) << label << " pad lane=" << l;
            }
            EXPECT_GT(exact8, 0) << label;
            EXPECT_NE(ovf8, 0u) << label;

            const auto wide = split_windows(
                q, kInterseqTileRows, static_cast<std::size_t>(H), rng);
            std::size_t wide_columns = 0;
            for (const auto& s : wide) {
                wide_columns = std::max(wide_columns, s.size());
            }
            const std::vector<Code> wide_cols =
                interleave(wide, W, wide_columns);
            std::int16_t best16[64];
            EXPECT_EQ(sw_interseq_i16_tiled(prof, wide_cols.data(),
                                            wide_columns, gap, isa, scratch,
                                            state, nullptr, best16)
                          .overflow,
                      0u)
                << label;
            const Profile16 p16 = build_profile16(q, blosum(), H);
            for (int l = 0; l < H; ++l) {
                const auto& s = wide[static_cast<std::size_t>(l)];
                EXPECT_EQ(static_cast<Score>(best16[l]),
                          sw_striped_i16(p16, s, gap, isa).score)
                    << label << " lane=" << l;
                EXPECT_EQ(static_cast<Score>(best16[l]),
                          sw_score_affine(q, s, blosum(), gap))
                    << label << " lane=" << l;
            }
        }
    }
}

TEST(InterseqTiledKernels, ColumnStateReusableAcrossCallsAndSizes) {
    // One InterseqColumnState serves a whole worker: back-to-back
    // cohorts of different widths and column counts must each score as
    // if the state were fresh — no carry-over between calls, capacity
    // grows monotonically.
    Rng rng(229);
    const std::size_t qlen = kInterseqTileRows + 200;
    const std::vector<Code> q = db::random_protein(rng, qlen, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const test::TierWidth& tw : test::tier_widths()) {
        const test::PinnedTier pin(tw);
        const simd::IsaLevel isa = tw.width;
        const int W = lanes_u8(isa);
        ScanScratch scratch;
        InterseqColumnState shared;
        // Big cohort first, then a small one, then the big one again:
        // the small call must not poison the big call's carried state.
        const auto big = random_subjects(
            rng, static_cast<std::size_t>(W), 150, 300);
        const auto small = random_subjects(rng, 2, 10, 30);
        std::size_t big_cols = 0, small_cols = 0;
        for (const auto& s : big) big_cols = std::max(big_cols, s.size());
        for (const auto& s : small) {
            small_cols = std::max(small_cols, s.size());
        }
        const std::vector<Code> big_iv = interleave(big, W, big_cols);
        const std::vector<Code> small_iv = interleave(small, W, small_cols);

        std::uint8_t first[64], again[64], fresh[64];
        const std::uint64_t ovf_first = sw_interseq_u8_tiled(
            prof, big_iv.data(), big_cols, kGap, isa, scratch, shared,
            first);
        sw_interseq_u8_tiled(prof, small_iv.data(), small_cols, kGap, isa,
                             scratch, shared, again);
        const std::uint64_t ovf_again = sw_interseq_u8_tiled(
            prof, big_iv.data(), big_cols, kGap, isa, scratch, shared,
            again);
        InterseqColumnState pristine;
        const std::uint64_t ovf_fresh = sw_interseq_u8_tiled(
            prof, big_iv.data(), big_cols, kGap, isa, scratch, pristine,
            fresh);

        EXPECT_EQ(ovf_again, ovf_first) << simd::to_string(isa);
        EXPECT_EQ(ovf_fresh, ovf_first) << simd::to_string(isa);
        for (int l = 0; l < W; ++l) {
            EXPECT_EQ(again[l], first[l])
                << "isa=" << simd::to_string(isa) << " lane=" << l;
            EXPECT_EQ(fresh[l], first[l])
                << "isa=" << simd::to_string(isa) << " lane=" << l;
        }
    }
}

}  // namespace
}  // namespace swh::align
