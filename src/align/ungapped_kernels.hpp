#pragma once

// Templated bodies of the gap-slack prefilter kernels: one subject per
// SIMD lane, two DP rows indexed by query position (the H row and the
// rows-above prefix maximum), no E/F recurrences — just the diagonal
// chain with a row-monotone restart charge (see align/ungapped.hpp).
// Instantiated per ISA tier and width in kernels_tier.hpp; a tier
// header (simd/tier.hpp).
//
// The arithmetic matches the full inter-sequence kernels
// (interseq_kernels.hpp): raw int8 scores from the shared transposed
// profile, DP values held as value - 128 in signed lanes, so
// `adds(H, s)` computes max(0, H + s) in one op, and the overflow mask
// uses the striped u8 kernel's conservative bound, `score + bias >=
// 255`, on maxima clamped to it — if any add clipped, the running
// maximum itself sits at or past the bound, so the final check cannot
// miss it. The restart `charge(above)` clamps a negative result at 0;
// that only ever substitutes the always-legal fresh start (H is
// clamped at 0 anyway), so the int8 and scalar forms compute the
// identical function below the flag bound.

#include <algorithm>
#include <cstring>

#include "align/interseq.hpp"
#include "align/interseq_kernels.hpp"
#include "align/striped.hpp"
#include "align/ungapped.hpp"
#include "simd/simd.hpp"
#include "util/annotations.hpp"

SWH_TIER_BEGIN
namespace swh::align::SWH_TIER_NS {

/// 8-bit gap-slack kernel body: B is a simd::Backend; its U8 vectors
/// carry the residue codes and its S8 vectors the chain values.
template <class B, bool kSplit>
SWH_HOT_PATH std::uint64_t ungapped_u8_sweep(const InterseqProfile& p,
                                             const Code* cols,
                                             std::size_t columns,
                                             GapPenalty gap,
                                             ScanScratch& scratch,
                                             std::uint8_t* lane_best,
                                             std::size_t lo, std::size_t m) {
    using U = typename B::U8;
    using S = typename B::S8;
    constexpr int W = S::kLanes;
    const S vFloor = S::splat(kFloor8);
    // The restart charge is the cheapest gap run, open + extend (see
    // align/ungapped.hpp).
    const auto restart = GapCharge8<S, kSplit>::of(gap.cost(1));
    const std::size_t bytes = m * sizeof(S);
    const ScanScratch::KernelBuffers bufs = scratch.kernel_buffers(bytes);
    S* __restrict h = static_cast<S*>(bufs.h_load);
    // above[i] = max T over rows < i of all columns processed so far
    // (A(i, j) in ungapped.hpp) — the only legal restart sources for
    // row i.
    S* __restrict above = static_cast<S*>(bufs.e);
    std::fill_n(h, m, vFloor);
    std::fill_n(above, m, vFloor);
    S vMax = vFloor;

    for (std::size_t j = 0; j < columns; ++j) {
        const U dbv = U::load(cols + j * static_cast<std::size_t>(W));
        S vDiag = vFloor;    // H(i-1, j-1); 0 boundary for i = 0
        S vPrefix = vFloor;  // max H over rows < i of THIS column
        for (std::size_t i = 0; i < m; ++i) {
            const S vAbove = above[i];
            // Restart from the best chain value strictly above this
            // row in any earlier column, charged one gap run. vAbove
            // still excludes this column's rows — same-column cells
            // cannot feed each other.
            const S vIn = vmax(vDiag, restart(vAbove));
            const S vH = adds(vIn, lookup32(p.row(lo + i), dbv));
            vDiag = h[i];  // this row's H of the previous column
            h[i] = vH;
            above[i] = vmax(vAbove, vPrefix);
            vPrefix = vmax(vPrefix, vH);
        }
        vMax = vmax(vMax, vPrefix);
    }
    return report_u8(vMax, p.bias, lane_best);
}

/// 8-bit gap-slack kernel. B is a simd::Backend. Returns the overflow
/// lane mask; lane_best[0..B::U8::kLanes) receives per-lane chain
/// bounds.
template <class B>
SWH_HOT_PATH std::uint64_t ungapped_interseq_u8(const InterseqProfile& p,
                                                const Code* cols,
                                                std::size_t columns,
                                                GapPenalty gap,
                                                ScanScratch& scratch,
                                                std::uint8_t* lane_best,
                                                std::size_t row_begin,
                                                std::size_t row_end) {
    std::memset(lane_best, 0, B::U8::kLanes);
    const std::size_t lo = std::min(row_begin, p.query_len);
    const std::size_t hi = std::min(row_end, p.query_len);
    if (lo >= hi || columns == 0) return 0;
    return gap.cost(1) > 127
               ? ungapped_u8_sweep<B, true>(p, cols, columns, gap, scratch,
                                            lane_best, lo, hi - lo)
               : ungapped_u8_sweep<B, false>(p, cols, columns, gap, scratch,
                                             lane_best, lo, hi - lo);
}

/// Composition cap per lane (see align/ungapped.hpp): one lookup32 of
/// the col_cap table and a widening i16 add per column. B is a
/// simd::Backend. A chunk of 32767 / max_raw columns cannot reach the
/// i16 limit (every entry is <= max_raw), so each chunk's sums are
/// flushed into the int32 totals before the next one starts — the cap
/// is exact on any subject length.
template <class B>
SWH_HOT_PATH void composition_cap(const InterseqProfile& p, const Code* cols,
                                  std::size_t columns, Score* lane_cap) {
    using U = typename B::U8;
    using I = typename B::I16;
    constexpr int W = U::kLanes;
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
            const auto c = lookup32(p.col_cap.data(), U::load(col));
            lo = adds(lo, widen_lo(c));
            hi = adds(hi, widen_hi(c));
        }
        lo.store(part);
        hi.store(part + H);
        for (int l = 0; l < W; ++l) lane_cap[l] += part[l];
    }
}

}  // namespace swh::align::SWH_TIER_NS
SWH_TIER_END
