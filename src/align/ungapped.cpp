#include "align/ungapped.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "align/kernels.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace swh::align {

Score sw_ungapped_scalar(std::span<const Code> a, std::span<const Code> b,
                         const ScoreMatrix& matrix, GapPenalty gap) {
    SWH_REQUIRE(gap.open >= 0 && gap.extend >= 0,
                "gap penalties must be non-negative");
    Score best = 0;
    if (a.empty() || b.empty()) return best;
    // Two rolling rows over a, swept once per residue of b (matching
    // the kernels' column order): `row` carries the previous column's
    // T, `above[i]` the best T over rows < i of all columns processed
    // so far (A(i, j) in ungapped.hpp) — the only legal restart sources
    // for row i.
    std::vector<Score> row(a.size(), 0);
    std::vector<Score> above(a.size(), 0);
    const Score restart = gap.cost(1);  // open + extend: the cheapest gap run
    for (const Code cb : b) {
        Score diag = 0;    // T(i-1, j-1), 0 boundary at i = 0
        Score prefix = 0;  // max T over rows < i of THIS column
        for (std::size_t i = 0; i < a.size(); ++i) {
            const Score aOld = above[i];
            const Score h = std::max<Score>(
                0, std::max(diag, aOld - restart) + matrix.at(a[i], cb));
            diag = row[i];
            row[i] = h;
            above[i] = std::max(aOld, prefix);
            prefix = std::max(prefix, h);
            best = std::max(best, h);
        }
    }
    return best;
}

std::uint64_t sw_ungapped_interseq_u8(const InterseqProfile& profile,
                                      const Code* cols, std::size_t columns,
                                      GapPenalty gap, simd::IsaLevel isa,
                                      ScanScratch& scratch,
                                      std::uint8_t* lane_best,
                                      std::size_t row_begin,
                                      std::size_t row_end) {
    return kernels().ungapped_interseq_u8(isa, profile, cols, columns, gap,
                                          scratch, lane_best, row_begin,
                                          row_end);
}

void sw_composition_cap(const InterseqProfile& profile, const Code* cols,
                        std::size_t columns, simd::IsaLevel isa,
                        Score* lane_cap) {
    kernels().composition_cap(isa, profile, cols, columns, lane_cap);
}

FilterSweep sw_ungapped_tiled_u8(const InterseqProfile& profile,
                                 const Code* cols, std::size_t columns,
                                 GapPenalty gap, simd::IsaLevel isa,
                                 ScanScratch& scratch, Score tau,
                                 Score* lane_bound, std::size_t row_begin,
                                 std::uint64_t lanes) {
    const int width = lanes_u8(isa);
    const std::size_t qlen = profile.query_len;
    const std::size_t rows = filter_tile_rows(qlen);
    SWH_DCHECK(row_begin >= qlen || row_begin % rows == 0,
               "prefilter sweep resumes at a tile boundary");
    if (row_begin == 0) std::fill_n(lane_bound, width, Score{0});
    if (width < 64) lanes &= (std::uint64_t{1} << width) - 1;
    std::uint8_t bound8[64];
    FilterSweep sweep;
    if (tau <= 0) {
        // No threshold can prune: the plain tile sums.
        for (std::size_t r0 = row_begin; r0 < qlen; r0 += rows) {
            sweep.saturated |= lanes & sw_ungapped_interseq_u8(
                                           profile, cols, columns, gap, isa,
                                           scratch, bound8, r0, r0 + rows);
            ++sweep.tiles;
            for (int l = 0; l < width; ++l) lane_bound[l] += bound8[l];
        }
        return sweep;
    }

    // Every lane's cap is at most columns * the largest col_cap entry.
    // The exact cap costs about one query row of the sweep per column;
    // with one tile it can save at most that tile, so it pays only on
    // multi-tile queries, and only when the uniform bound cannot
    // already prune the whole cohort.
    const auto widest = static_cast<std::int64_t>(*std::max_element(
        profile.col_cap.begin(), profile.col_cap.end()));
    const auto uniform = static_cast<Score>(std::min<std::int64_t>(
        static_cast<std::int64_t>(columns) * widest,
        std::numeric_limits<Score>::max()));
    Score cap[64];
    if (filter_tile_count(qlen) > 1 && uniform >= tau) {
        sw_composition_cap(profile, cols, columns, isa, cap);
    } else {
        std::fill_n(cap, width, uniform);
    }
    const std::vector<Score>& prefix = profile.row_cap_prefix;
    // lane_bound holds each lane's partial tile sum until the end.
    std::uint64_t open = lanes;
    std::size_t swept = std::min(row_begin, qlen);  // rows swept so far
    const auto decide = [&] {
        const Score rest = prefix[qlen] - prefix[swept];
        for (std::uint64_t m = open; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (std::min(lane_bound[l] + rest, cap[l]) < tau ||
                lane_bound[l] >= tau) {
                open &= ~(std::uint64_t{1} << l);
            }
        }
    };
    decide();
    while (open != 0 && swept < qlen) {
        const std::uint64_t sat = sw_ungapped_interseq_u8(
            profile, cols, columns, gap, isa, scratch, bound8, swept,
            swept + rows);
        ++sweep.tiles;
        swept = std::min(swept + rows, qlen);
        for (int l = 0; l < width; ++l) lane_bound[l] += bound8[l];
        // A clipped tile sum is no bound: the lane survives (its cap
        // is >= tau, or decide() would have pruned it already).
        sweep.saturated |= sat & open;
        open &= ~sat;
        decide();
    }
    if (swept < qlen) sweep.tiles_skipped = (qlen - swept + rows - 1) / rows;
    const Score rest = prefix[qlen] - prefix[swept];
    for (int l = 0; l < width; ++l) {
        lane_bound[l] = std::min(lane_bound[l] + rest, cap[l]);
    }
    return sweep;
}

}  // namespace swh::align
