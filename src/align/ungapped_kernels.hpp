#pragma once

// Templated bodies of the gap-slack prefilter kernels: one subject per
// SIMD lane, two DP rows indexed by query position (the H row and the
// rows-above prefix maximum), no E/F recurrences — just the diagonal
// chain with a row-monotone restart charge (see align/ungapped.hpp).
// Instantiated per SIMD backend in ungapped.cpp; exposed in a header so
// tests can pin a specific backend.
//
// The arithmetic idiom matches the full inter-sequence kernels
// (interseq_kernels.hpp): scores come biased from the shared transposed
// profile, `subs(adds(H, s+bias), bias)` computes max(0, H + s) exactly
// in saturating unsigned arithmetic, and the overflow mask uses the
// same conservative saturation bound as the striped u8 kernel — if any
// add clipped, the running maximum itself sits at the clip point, so
// the final check cannot miss it. The restart `subs(above, vRestart)`
// clamps a negative result at 0; that only ever substitutes the always-
// legal fresh start (H is clamped at 0 anyway), so the u8 and scalar
// forms compute the identical function absent saturation.

#include <algorithm>
#include <cstring>

#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "align/ungapped.hpp"
#include "util/annotations.hpp"

namespace swh::align::detail {

/// 8-bit gap-slack kernel. V must model the u8 vector interface of
/// simd/vec_scalar.hpp including lookup32. Returns the overflow lane
/// mask; lane_best[0..V::kLanes) receives per-lane chain bounds.
template <class V>
SWH_HOT_PATH std::uint64_t ungapped_interseq_u8(const InterseqProfile& p, const Code* cols,
                                   std::size_t columns, GapPenalty gap,
                                   ScanScratch& scratch,
                                   std::uint8_t* lane_best,
                                   std::size_t row_begin, std::size_t row_end) {
    constexpr int W = V::kLanes;
    std::memset(lane_best, 0, W);
    const std::size_t lo = std::min(row_begin, p.query_len);
    const std::size_t hi = std::min(row_end, p.query_len);
    if (lo >= hi || columns == 0) return 0;
    const std::size_t m = hi - lo;

    const V vBias = V::splat(static_cast<std::uint8_t>(p.bias));
    // The restart charge is the cheapest gap run, open + extend (see
    // align/ungapped.hpp). A charge > 255 saturates the splat; the
    // saturating subtract below then clamps the restart at 0, which only
    // weakens (never breaks) the bound.
    const V vRestart = V::splat(
        static_cast<std::uint8_t>(std::min<Score>(gap.cost(1), 255)));
    const std::size_t bytes = m * sizeof(V);
    const ScanScratch::KernelBuffers bufs = scratch.kernel_buffers(bytes);
    V* __restrict h = static_cast<V*>(bufs.h_load);
    // above[i] = max T over rows < i of all columns processed so far
    // (A(i, j) in ungapped.hpp) — the only legal restart sources for
    // row i.
    V* __restrict above = static_cast<V*>(bufs.e);
    std::fill_n(h, m, V::zero());
    std::fill_n(above, m, V::zero());
    V vMax = V::zero();

    for (std::size_t j = 0; j < columns; ++j) {
        const V dbv = V::load(cols + j * static_cast<std::size_t>(W));
        V vDiag = V::zero();    // H(i-1, j-1); 0 boundary for i = 0
        V vPrefix = V::zero();  // max H over rows < i of THIS column
        for (std::size_t i = 0; i < m; ++i) {
            const V vAbove = above[i];
            // Restart from the best chain value strictly above this
            // row in any earlier column, charged one gap run. vAbove
            // still excludes this column's rows — same-column cells
            // cannot feed each other.
            const V vIn = vmax(vDiag, subs(vAbove, vRestart));
            const V vH =
                subs(adds(vIn, lookup32(p.row(lo + i), dbv)), vBias);
            vDiag = h[i];  // this row's H of the previous column
            h[i] = vH;
            above[i] = vmax(vAbove, vPrefix);
            vPrefix = vmax(vPrefix, vH);
        }
        vMax = vmax(vMax, vPrefix);
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

/// Composition cap per lane (see align/ungapped.hpp): one lookup32 of
/// the col_cap table and a widening i16 add per column. A chunk of
/// 32767 / max_raw columns cannot reach the i16 limit (every entry is
/// <= max_raw), so each chunk's sums are flushed into the int32 totals
/// before the next one starts — the cap is exact on any subject length.
template <class V>
SWH_HOT_PATH void composition_cap(const InterseqProfile& p, const Code* cols,
                                  std::size_t columns, Score* lane_cap) {
    constexpr int W = V::kLanes;
    using I = decltype(widen_lo(V::zero()));
    constexpr int H = I::kLanes;
    std::fill_n(lane_cap, W, Score{0});
    const std::size_t chunk = 32767 / std::max<Score>(1, p.max_raw);
    std::int16_t part[64];
    for (std::size_t j0 = 0; j0 < columns; j0 += chunk) {
        const std::size_t j1 = std::min(columns, j0 + chunk);
        I lo = I::zero();
        I hi = I::zero();
        for (std::size_t j = j0; j < j1; ++j) {
            const Code* col = cols + j * static_cast<std::size_t>(W);
            const V c = lookup32(p.col_cap.data(), V::load(col));
            lo = adds(lo, widen_lo(c));
            hi = adds(hi, widen_hi(c));
        }
        lo.store(part);
        hi.store(part + H);
        for (int l = 0; l < W; ++l) lane_cap[l] += part[l];
    }
}

}  // namespace swh::align::detail
