#pragma once

// Templated bodies of the inter-sequence Smith-Waterman kernels: one
// subject per SIMD lane, DP state arrays indexed by query position.
// Instantiated per SIMD backend in interseq.cpp; exposed in a header so
// tests can pin a specific backend.
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
// Arithmetic is cell-for-cell identical to the striped kernels (same
// saturating ops in the same order), and tiling only reorders cell
// visits, so per-lane scores and overflow flags are bit-identical to
// what striped_u8/i16 produce for the same subject — the property the
// golden-equivalence suites pin down.

#include <algorithm>

#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"

namespace swh::align::detail {

/// 8-bit kernel. V must model the u8 vector interface of
/// simd/vec_scalar.hpp including lookup32/widen. Returns the overflow
/// lane mask; lane_best[0..V::kLanes) receives per-lane maxima.
template <class V>
SWH_HOT_PATH std::uint64_t interseq_u8_tiled(const InterseqProfile& p, const Code* cols,
                                std::size_t columns, GapPenalty gap,
                                ScanScratch& scratch,
                                InterseqColumnState& state,
                                std::uint8_t* lane_best) {
    constexpr int W = V::kLanes;
    std::fill_n(lane_best, W, std::uint8_t{0});
    const std::size_t m = p.query_len;
    if (m == 0 || columns == 0) return 0;

    const auto open_ext =
        static_cast<std::uint8_t>(std::min<Score>(gap.open + gap.extend, 255));
    const auto ext =
        static_cast<std::uint8_t>(std::min<Score>(gap.extend, 255));
    const V vGapOE = V::splat(open_ext);
    const V vGapE = V::splat(ext);
    const V vBias = V::splat(static_cast<std::uint8_t>(p.bias));

    const std::size_t tiles = interseq_tile_count(m);
    const std::size_t rows = (m + tiles - 1) / tiles;
    const std::size_t bytes = std::min(rows, m) * sizeof(V);
    const ScanScratch::KernelBuffers bufs = scratch.kernel_buffers(bytes);
    V* __restrict h = static_cast<V*>(bufs.h_load);
    V* __restrict e = static_cast<V*>(bufs.e);
    const InterseqColumnState::Arrays carry =
        state.arrays(columns * sizeof(V));
    V* __restrict crow = static_cast<V*>(carry.h);
    V* __restrict cf = static_cast<V*>(carry.f);
    V vMax = V::zero();

    for (std::size_t r0 = 0; r0 < m; r0 += rows) {
        const std::size_t tm = std::min(rows, m - r0);
        std::fill_n(h, tm, V::zero());
        std::fill_n(e, tm, V::zero());
        const bool first = r0 == 0;
        // H(r0-1, j-1): the diagonal feeding the tile's top row. Starts
        // at the 0 boundary column and then trails crow by one column.
        V carryDiag = V::zero();
        for (std::size_t j = 0; j < columns; ++j) {
            const V dbv = V::load(cols + j * static_cast<std::size_t>(W));
            V vF = first ? V::zero() : cf[j];
            V vDiag = carryDiag;
            carryDiag = first ? V::zero() : crow[j];
            for (std::size_t i = 0; i < tm; ++i) {
                V vH = subs(adds(vDiag, lookup32(p.row(r0 + i), dbv)), vBias);
                vDiag = h[i];  // this row's H of the previous column
                vH = vmax(vH, e[i]);
                vH = vmax(vH, vF);
                vMax = vmax(vMax, vH);
                h[i] = vH;
                const V vHgap = subs(vH, vGapOE);
                e[i] = vmax(subs(e[i], vGapE), vHgap);
                vF = vmax(subs(vF, vGapE), vHgap);
            }
            crow[j] = h[tm - 1];
            cf[j] = vF;
        }
    }

    vMax.store(lane_best);
    std::uint64_t overflow = 0;
    for (int l = 0; l < W; ++l) {
        if (static_cast<Score>(lane_best[l]) + p.bias >= 255) {
            overflow |= std::uint64_t{1} << l;
        }
    }
    return overflow;
}

/// 16-bit kernel over the same u8-width interleave: each residue
/// vector's lo half is widened to one i16 vector, so the kernel scores
/// lanes [0, W/2) and never reads lanes [W/2, W). Scores are looked up
/// through the shared biased u8 table and un-biased exactly after
/// widening. Returns the overflow mask of the scored lanes;
/// lane_best[0..W/2) receives their maxima.
template <class V>
SWH_HOT_PATH std::uint64_t interseq_i16_tiled(const InterseqProfile& p, const Code* cols,
                                 std::size_t columns, GapPenalty gap,
                                 ScanScratch& scratch,
                                 InterseqColumnState& state,
                                 std::int16_t* lane_best) {
    constexpr int W = V::kLanes;
    using VW = decltype(widen_lo(V::zero()));
    std::fill_n(lane_best, VW::kLanes, std::int16_t{0});
    const std::size_t m = p.query_len;
    if (m == 0 || columns == 0) return 0;

    const VW vGapOE = VW::splat(static_cast<std::int16_t>(
        std::min<Score>(gap.open + gap.extend, 32767)));
    const VW vGapE =
        VW::splat(static_cast<std::int16_t>(std::min<Score>(gap.extend, 32767)));
    const VW vBias = VW::splat(static_cast<std::int16_t>(p.bias));
    const VW vZero = VW::zero();

    const std::size_t tiles = interseq_tile_count(m);
    const std::size_t rows = (m + tiles - 1) / tiles;
    const std::size_t bytes = std::min(rows, m) * sizeof(VW);
    const ScanScratch::KernelBuffers bufs = scratch.kernel_buffers(bytes);
    VW* __restrict h = static_cast<VW*>(bufs.h_load);
    VW* __restrict e = static_cast<VW*>(bufs.e);
    const InterseqColumnState::Arrays carry =
        state.arrays(columns * sizeof(VW));
    VW* __restrict crow = static_cast<VW*>(carry.h);
    VW* __restrict cf = static_cast<VW*>(carry.f);
    VW vMax = VW::zero();

    for (std::size_t r0 = 0; r0 < m; r0 += rows) {
        const std::size_t tm = std::min(rows, m - r0);
        std::fill_n(h, tm, VW::zero());
        std::fill_n(e, tm, VW::zero());
        const bool first = r0 == 0;
        VW carryDiag = VW::zero();
        for (std::size_t j = 0; j < columns; ++j) {
            const V dbv = V::load(cols + j * static_cast<std::size_t>(W));
            VW vF = first ? VW::zero() : cf[j];
            VW vDiag = carryDiag;
            carryDiag = first ? VW::zero() : crow[j];
            for (std::size_t i = 0; i < tm; ++i) {
                // Exact un-bias: widened entries are in [0, 255], so the
                // subtraction cannot saturate and yields the raw score.
                const VW s =
                    subs(widen_lo(lookup32(p.row(r0 + i), dbv)), vBias);
                VW vH = adds(vDiag, s);
                vDiag = h[i];
                vH = vmax(vH, e[i]);
                vH = vmax(vH, vF);
                vH = vmax(vH, vZero);  // local-alignment clamp
                vMax = vmax(vMax, vH);
                h[i] = vH;
                const VW vHgap = subs(vH, vGapOE);
                e[i] = vmax(subs(e[i], vGapE), vHgap);
                vF = vmax(subs(vF, vGapE), vHgap);
            }
            crow[j] = h[tm - 1];
            cf[j] = vF;
        }
    }

    vMax.store(lane_best);
    std::uint64_t overflow = 0;
    for (int l = 0; l < VW::kLanes; ++l) {
        if (static_cast<Score>(lane_best[l]) + p.max_raw >= 32767) {
            overflow |= std::uint64_t{1} << l;
        }
    }
    return overflow;
}

}  // namespace swh::align::detail
