#pragma once

// Templated bodies of the inter-sequence Smith-Waterman kernels: one
// subject per SIMD lane, DP state arrays indexed by query position.
// Instantiated per ISA tier and width in kernels_tier.hpp; a tier
// header (simd/tier.hpp).
//
// Orientation: the outer loop walks subject columns (one interleaved
// residue vector per column), the inner loop walks the query. E (gap
// along the subject) persists per query row; F (gap along the query)
// runs as a register down the column; the diagonal H comes from the
// previous column's row array. F needs no lazy correction pass — it is
// computed exactly in order, which is the structural advantage over the
// striped kernel on short queries.
//
// The query is cut into balanced row tiles (interseq_tile_count; one
// tile for short queries), and each tile is swept over every subject
// column before the next tile starts. What crosses a tile boundary,
// per subject column j, is exactly the state a monolithic sweep would
// hand from row r-1 to row r: H(r-1, j) (the carried bottom row, which
// is row r's diagonal for column j+1 and its vertical neighbour for
// column j) and the running F entering row r. E does not cross tiles —
// it is per-row state, fully contained in a tile's own row array.
//
// Arithmetic. The profile holds raw int8 scores, and the DP values sit
// in signed lanes offset by the type's minimum (value - 128 in the 8-bit
// kernel, value - 32768 in the 16-bit one), so the floor value — the
// type's minimum — is score 0. A signed saturating add of a raw score
// is then max(0, H + s) in one op, the local-alignment clamp included,
// and a saturating subtract clamps gap runs at 0. The 8-bit values
// reach 255 where the striped kernel's biased ones stop at 255 - bias,
// and the 16-bit ones 65535; the reported maxima are clamped back to
// the striped kernels' flag bounds (score + bias >= 255, score +
// max_raw >= 32767). Below those bounds every value is exact in both,
// and tiling only reorders cell visits, so per-lane scores and
// overflow flags are the same as striped_u8/i16 produce for the same
// subject — the property the golden-equivalence suites pin down.

#include <algorithm>
#include <cstdint>

#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "simd/simd.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"

SWH_TIER_BEGIN
namespace swh::align::SWH_TIER_NS {

/// Floor values of the offset-signed kernels: score 0.
constexpr std::int8_t kFloor8 = INT8_MIN;
constexpr std::int16_t kFloor16 = INT16_MIN;

/// A gap charge c >= 0 on offset-signed int8 values, clamped at 0.
/// A charge above 127 is no int8 operand, so it is split into two
/// saturating steps that sum to min(c, 254): clamping at 0 twice is
/// clamping once, and a lane below its flag bound holds values <= 254,
/// from which a charge of 254 or more leaves 0 either way. `kSplit` is
/// chosen once per kernel call (c > 127), never per cell.
template <class S, bool kSplit>
struct GapCharge8 {
    S first;
    S second;

    static GapCharge8 of(Score c) {
        const Score total = std::min<Score>(c, 254);
        const Score head = std::min<Score>(total, 127);
        return {S::splat(static_cast<std::int8_t>(head)),
                S::splat(static_cast<std::int8_t>(total - head))};
    }

    S operator()(S x) const {
        if constexpr (kSplit) {
            return subs(subs(x, first), second);
        } else {
            return subs(x, first);
        }
    }
};

/// Stores the per-lane maxima of an offset-signed int8 vector as scores
/// clamped to the striped u8 kernel's flag bound, 255 - bias, and
/// returns the mask of the lanes that reached it (score + bias >= 255).
template <class S>
std::uint64_t report_u8(S vMax, Score bias, std::uint8_t* lane_best) {
    std::int8_t raw[S::kLanes];
    vMax.store(raw);
    const Score cap = 255 - bias;
    std::uint64_t overflow = 0;
    for (int l = 0; l < S::kLanes; ++l) {
        const Score score = std::min<Score>(raw[l] - kFloor8, cap);
        lane_best[l] = static_cast<std::uint8_t>(score);
        if (score + bias >= 255) overflow |= std::uint64_t{1} << l;
    }
    return overflow;
}

/// 8-bit kernel body: B is a simd::Backend; its U8 vectors carry the
/// residue codes and its S8 vectors the DP values.
template <class B, bool kSplit>
SWH_HOT_PATH std::uint64_t interseq_u8_sweep(const InterseqProfile& p,
                                             const Code* cols,
                                             std::size_t columns,
                                             GapPenalty gap,
                                             ScanScratch& scratch,
                                             InterseqColumnState& state,
                                             std::uint8_t* lane_best) {
    using U = typename B::U8;
    using S = typename B::S8;
    constexpr int W = S::kLanes;
    const std::size_t m = p.query_len;
    const auto chargeOE = GapCharge8<S, kSplit>::of(gap.open + gap.extend);
    const auto chargeE = GapCharge8<S, kSplit>::of(gap.extend);
    const S vFloor = S::splat(kFloor8);

    const std::size_t tiles = interseq_tile_count(m);
    const std::size_t rows = (m + tiles - 1) / tiles;
    const std::size_t bytes = std::min(rows, m) * sizeof(S);
    const ScanScratch::KernelBuffers bufs = scratch.kernel_buffers(bytes);
    S* __restrict h = static_cast<S*>(bufs.h_load);
    S* __restrict e = static_cast<S*>(bufs.e);
    const InterseqColumnState::Arrays carry =
        state.arrays(columns * sizeof(S));
    S* __restrict crow = static_cast<S*>(carry.h);
    S* __restrict cf = static_cast<S*>(carry.f);
    S vMax = vFloor;

    for (std::size_t r0 = 0; r0 < m; r0 += rows) {
        const std::size_t tm = std::min(rows, m - r0);
        std::fill_n(h, tm, vFloor);
        std::fill_n(e, tm, vFloor);
        const bool first = r0 == 0;
        // H(r0-1, j-1): the diagonal feeding the tile's top row. Starts
        // at the 0 boundary column and then trails crow by one column.
        S carryDiag = vFloor;
        for (std::size_t j = 0; j < columns; ++j) {
            const U dbv = U::load(cols + j * static_cast<std::size_t>(W));
            S vF = first ? vFloor : cf[j];
            S vDiag = carryDiag;
            carryDiag = first ? vFloor : crow[j];
            for (std::size_t i = 0; i < tm; ++i) {
                S vH = adds(vDiag, lookup32(p.row(r0 + i), dbv));
                vDiag = h[i];  // this row's H of the previous column
                vH = vmax(vH, e[i]);
                vH = vmax(vH, vF);
                vMax = vmax(vMax, vH);
                h[i] = vH;
                const S vHgap = chargeOE(vH);
                e[i] = vmax(chargeE(e[i]), vHgap);
                vF = vmax(chargeE(vF), vHgap);
            }
            crow[j] = h[tm - 1];
            cf[j] = vF;
        }
    }
    return report_u8(vMax, p.bias, lane_best);
}

/// 8-bit kernel. B is a simd::Backend. Returns the overflow lane mask;
/// lane_best[0..B::U8::kLanes) receives per-lane maxima.
template <class B>
SWH_HOT_PATH std::uint64_t interseq_u8_tiled(const InterseqProfile& p,
                                             const Code* cols,
                                             std::size_t columns,
                                             GapPenalty gap,
                                             ScanScratch& scratch,
                                             InterseqColumnState& state,
                                             std::uint8_t* lane_best) {
    std::fill_n(lane_best, B::U8::kLanes, std::uint8_t{0});
    if (p.query_len == 0 || columns == 0) return 0;
    return gap.open + gap.extend > 127
               ? interseq_u8_sweep<B, true>(p, cols, columns, gap, scratch,
                                            state, lane_best)
               : interseq_u8_sweep<B, false>(p, cols, columns, gap, scratch,
                                             state, lane_best);
}

/// Column granularity of the i16 kernel's column-cap suffix: column j
/// reads the suffix from the block start at or before j + 1, which
/// overstates the gain right of j by at most kGainBlock - 1 columns'
/// caps. The blocks then fit the kernel buffer the tile's rows size
/// whenever the subject has at most kGainBlock columns per tile row
/// (8192 at full tiles; a homolog's length follows the query's), so the
/// bound costs no memory of its own there; one entry per column raised
/// paper40's peak resident set by 8.5%.
constexpr std::size_t kGainBlock = 32;

/// 16-bit kernel over the same u8-width interleave: each residue
/// vector's looked-up int8 scores are sign-extended from the lo half to
/// one i16 vector, so the kernel scores lanes [0, W/2) and never reads
/// lanes [W/2, W). lane_best[0..W/2) receives their maxima. A gap
/// charge above 32767 clips to it exactly: a lane below its flag bound
/// holds values below 32767, from which either charge leaves 0.
///
/// Bound pruning (DESIGN.md "Bound-pruned drain"). Before a tile's
/// column j is computed, each lane gets two bounds: Hub >= every H of
/// the column segment, from the previous column's segment maximum
/// (segH, which also bounds every E entering the column: E(i, j) <=
/// H(i, j-1)), the diagonal carried in from the tile above, the
/// column's composition cap and the entering F; and U >= what any path
/// can still gain below the tile's top row and right of j (the
/// query-row cap of rows past r0, the column-cap suffix of columns past
/// j, read at kGainBlock granularity; both clipped to 32767). When
/// Hub + U <= best in every lane — best being the lane's running
/// maximum, seeded by `seed` — no path through the segment can raise a
/// score, so the column is skipped: its carried H and F, and segH, drop
/// to the floor, and the tile's row arrays are floored before the next
/// column it computes. Every reported score and overflow bit is what
/// the full sweep gives.
template <class B>
SWH_HOT_PATH I16Pass interseq_i16_tiled(const InterseqProfile& p,
                                        const Code* cols, std::size_t columns,
                                        GapPenalty gap, ScanScratch& scratch,
                                        InterseqColumnState& state,
                                        const std::int16_t* seed,
                                        std::int16_t* lane_best) {
    using U = typename B::U8;
    using VW = typename B::I16;
    constexpr int W = U::kLanes;
    std::fill_n(lane_best, VW::kLanes, std::int16_t{0});
    const std::size_t m = p.query_len;
    if (m == 0 || columns == 0) return {};

    const VW vGapOE = VW::splat(static_cast<std::int16_t>(
        std::min<Score>(gap.open + gap.extend, 32767)));
    const VW vGapE =
        VW::splat(static_cast<std::int16_t>(std::min<Score>(gap.extend, 32767)));
    const VW vFloor = VW::splat(kFloor16);
    const std::int8_t* col_cap = p.col_cap.data();
    const auto column = [&](std::size_t j) {
        return U::load(cols + j * static_cast<std::size_t>(W));
    };

    const std::size_t tiles = interseq_tile_count(m);
    const std::size_t rows = (m + tiles - 1) / tiles;
    const std::size_t blocks = columns / kGainBlock + 1;
    const std::size_t bytes = std::max(std::min(rows, m), blocks) * sizeof(VW);
    const ScanScratch::KernelBuffers bufs = scratch.kernel_buffers(bytes);
    VW* __restrict h = static_cast<VW*>(bufs.h_load);
    VW* __restrict e = static_cast<VW*>(bufs.e);
    const InterseqColumnState::Arrays carry =
        state.arrays(columns * sizeof(VW));
    VW* __restrict crow = static_cast<VW*>(carry.h);
    VW* __restrict cf = static_cast<VW*>(carry.f);
    // gain[b]: the column-cap suffix from column b * kGainBlock on, the
    // sum over columns c >= b * kGainBlock of col_cap[d_c] per lane,
    // saturating at 32767 (0 for a block starting at `columns`).
    VW* __restrict gain = static_cast<VW*>(bufs.h_store);
    VW vGain = VW::zero();
    gain[blocks - 1] = vGain;
    for (std::size_t j = columns; j-- > 0;) {
        vGain = adds(vGain, widen_lo(lookup32(col_cap, column(j))));
        if (j % kGainBlock == 0) gain[j / kGainBlock] = vGain;
    }
    VW vMax = seed != nullptr ? adds(vFloor, VW::load(seed)) : vFloor;
    I16Pass pass;
    pass.columns = std::uint64_t{tiles} * columns;

    for (std::size_t r0 = 0; r0 < m; r0 += rows) {
        const std::size_t tm = std::min(rows, m - r0);
        const bool first = r0 == 0;
        const VW vRowGain = VW::splat(static_cast<std::int16_t>(std::min<Score>(
            p.row_cap_prefix[m] - p.row_cap_prefix[r0 + 1], 32767)));
        VW carryDiag = vFloor;
        VW segH = vFloor;  // max H of the previous column's segment
        bool stale = true;  // h/e still hold a skipped column (or none)
        for (std::size_t j = 0; j < columns; ++j) {
            const U dbv = column(j);
            const VW vFin = first ? vFloor : cf[j];
            VW vDiag = carryDiag;
            carryDiag = first ? vFloor : crow[j];
            const VW hub = vmax(
                adds(vmax(segH, vDiag), widen_lo(lookup32(col_cap, dbv))),
                vFin);
            const VW gainRight = gain[(j + 1) / kGainBlock];
            if (!any_gt(adds(hub, vmin(vRowGain, gainRight)), vMax)) {
                crow[j] = vFloor;
                cf[j] = vFloor;
                segH = vFloor;
                stale = true;
                ++pass.columns_skipped;
                continue;
            }
            if (stale) {
                std::fill_n(h, tm, vFloor);
                std::fill_n(e, tm, vFloor);
                stale = false;
            }
            VW vF = vFin;
            VW vCol = vFloor;
            for (std::size_t i = 0; i < tm; ++i) {
                VW vH = adds(vDiag, widen_lo(lookup32(p.row(r0 + i), dbv)));
                vDiag = h[i];
                vH = vmax(vH, e[i]);
                vH = vmax(vH, vF);
                vCol = vmax(vCol, vH);
                h[i] = vH;
                const VW vHgap = subs(vH, vGapOE);
                e[i] = vmax(subs(e[i], vGapE), vHgap);
                vF = vmax(subs(vF, vGapE), vHgap);
            }
            vMax = vmax(vMax, vCol);
            segH = vCol;
            crow[j] = h[tm - 1];
            cf[j] = vF;
        }
    }

    std::int16_t raw[VW::kLanes];
    vMax.store(raw);
    for (int l = 0; l < VW::kLanes; ++l) {
        const Score score = std::min<Score>(raw[l] - kFloor16, 32767);
        lane_best[l] = static_cast<std::int16_t>(score);
        if (score + p.max_raw >= 32767) pass.overflow |= std::uint64_t{1} << l;
    }
    return pass;
}

}  // namespace swh::align::SWH_TIER_NS
SWH_TIER_END
