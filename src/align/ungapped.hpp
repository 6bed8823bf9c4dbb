#pragma once

// Ungapped gap-slack prefilter kernels — stage 1 of the three-stage scan
// funnel (see align/db_scan.hpp).
//
// The kernels compute, per subject lane, the best score over CHAINS of
// ungapped diagonal segments where linking two segments is charged the
// cheapest gap run, open + extend (GapPenalty::cost(1)), and restarts
// may only source from strictly earlier query rows (row-monotone):
//
//   T(i,j) = max(0, max(T(i-1,j-1), A(i,j-1) - (open + extend))
//                   + s(q_i, d_j))
//   A(i,j) = max over i' < i, j' <= j of T(i', j')
//
// A(i, .) is a plain prefix maximum down the rows, so the kernels keep
// exactly two query-length DP rows (H and A) and no E/F state, and run
// at roughly 60% of the cost of the full inter-sequence Smith-Waterman
// kernel on the same cohort geometry and transposed query profile
// (align/interseq.hpp).
//
// Soundness: take any gapped local alignment and its aligned pairs in
// order. Consecutive pairs (i',j') -> (i,j) are either diagonal
// neighbours (the T(i-1,j-1) + s transition) or separated by at least
// one gap run, with i' < i and j' < j. A run of L >= 1 gap residues
// costs open + extend * L, which is at least open + extend because
// extend >= 0 (both penalties are required non-negative). The restart
// transition charges exactly open + extend while sourcing from
// A(i,j-1), which contains T(i',j') because i' <= i-1 and j' <= j-1. So
// every gapped alignment path maps cell-by-cell to a T-path of at least
// its score:
//
//   gapped(Q,S) <= T*(Q,S)   (the kernel's per-lane maximum).
//
// Charging `open` alone would be sound too, but looser: on the seed-1
// paper40 inputs the open + extend charge sweeps 6% fewer prefilter
// tiles, with the same top-k.
//
// The row-monotonicity is what keeps the bound tight: without it a
// chain could re-align the query's best segment to many subject
// positions, inflating the bound linearly in subject length. Forcing
// strictly increasing rows caps the total matched weight by what
// distinct query rows can contribute, which keeps random-background
// bounds within a small factor of the exact gapped score while true
// homologs stay high (their exact score is itself a witness chain).
//
// The kernels take a query row range so callers can tile long queries:
// splitting any chain (or gapped alignment) path at a row boundary
// yields one legal sub-path per tile, and summing the tiles' bounds
// simply forgoes charging the link between them — so
//
//   gapped(Q,S) <= sum over row tiles R of T*(Q[R], S)
//
// stays a sound upper bound while each tile's DP state fits in L1.
// The tile height is the prefilter's own (kFilterTileRows), not the
// exact kernels' kInterseqTileRows: a tile's bound grows with both its
// row count and the subject's length, and it must stay inside the
// 8-bit range on long subjects — a saturated lane carries no bound and
// is exact-scored however far below the threshold its true bound sits
// (see sw_ungapped_tiled_u8 and DESIGN.md "Tile-sum bound").
//
// Two further bounds cost almost nothing and let the tiled sweep stop
// early (sw_ungapped_tiled_u8):
//
//   * Query-row bound. A row-monotone chain, like a gapped alignment,
//     uses each query row at most once, so the tiles not yet swept add
//     at most the sum of max(0, max_a s(q_i, a)) over their rows
//     (InterseqProfile::row_cap_prefix).
//   * Composition cap. A gapped alignment uses each subject residue at
//     most once, so gapped(Q,S) <= sum over j of col_cap[d_j] with
//     col_cap[a] = max(0, max_i s(q_i, a)), pad code 0
//     (InterseqProfile::col_cap, summed by sw_composition_cap).
//
// A subject whose bound falls strictly below the running k-th best
// exact score therefore provably cannot enter the final top-k, and the
// funnel may skip its exact alignment without changing the result.
// See DESIGN.md "Prefilter funnel" for the full argument.

#include <cstdint>
#include <span>

#include "align/interseq.hpp"
#include "align/score_matrix.hpp"
#include "align/sequence.hpp"
#include "simd/arch.hpp"
#include "util/annotations.hpp"

namespace swh::align {

class ScanScratch;

/// Exact (int arithmetic, no saturation) scalar reference of the
/// gap-slack chain bound computed by the interseq kernels below. Used
/// by tests and the funnel soundness suite. Throws ContractError for a
/// negative gap penalty, for which the bound is not sound.
Score sw_ungapped_scalar(std::span<const Code> a, std::span<const Code> b,
                         const ScoreMatrix& matrix, GapPenalty gap);

/// 8-bit gap-slack prefilter kernel over one cohort — same geometry and
/// profile as sw_interseq_u8_tiled (align/interseq.hpp): `cols` points
/// at `columns` column-major residue columns of `lanes_u8(isa)` lanes.
/// Writes each lane's chain bound over query rows
/// [row_begin, min(row_end, query_len)), clamped to 255 - bias, to
/// lane_best[0..lanes) and returns the saturating-overflow lane mask
/// (bit l set = lane l may have saturated, `score + bias >= 255` —
/// those lanes carry no trustworthy bound and must be treated as
/// survivors). Residues must be pre-validated.
SWH_HOT_PATH std::uint64_t sw_ungapped_interseq_u8(const InterseqProfile& profile,
                                      const Code* cols, std::size_t columns,
                                      GapPenalty gap, simd::IsaLevel isa,
                                      ScanScratch& scratch,
                                      std::uint8_t* lane_best,
                                      std::size_t row_begin = 0,
                                      std::size_t row_end = SIZE_MAX);

/// Query rows per prefilter tile. At this height random-background
/// tile bounds (BLOSUM62) peak at 226 against the sample workloads'
/// subjects of up to 5000 residues and at 235 against 10 000-residue
/// ones, inside the u8 range (255 - bias); 192 rows already saturate
/// half the lanes against subjects of 3000+ residues, 256 rows nine in
/// ten. Shorter tiles measure no faster and only loosen the sum (more
/// inter-tile links go uncharged). DESIGN.md "Tile-sum bound" has the
/// sweep.
constexpr std::size_t kFilterTileRows = 128;

/// Number of balanced prefilter row tiles (sizes differ by at most one
/// row) of at most kFilterTileRows rows each; one tile for short
/// queries.
constexpr std::size_t filter_tile_count(std::size_t qlen) {
    return qlen <= kFilterTileRows
               ? std::size_t{1}
               : (qlen + kFilterTileRows - 1) / kFilterTileRows;
}

/// Rows of each balanced prefilter tile (the last may be shorter): the
/// first tile spans query rows [0, filter_tile_rows(qlen)).
constexpr std::size_t filter_tile_rows(std::size_t qlen) {
    return (qlen + filter_tile_count(qlen) - 1) / filter_tile_count(qlen);
}

/// Composition cap of every lane of one cohort (geometry as
/// sw_ungapped_interseq_u8): lane_cap[l] = sum over the lane's columns
/// of profile.col_cap[residue], exact — the i16 partial sums are
/// flushed into int32 totals before they could saturate. One table
/// lookup and a widening add per column.
SWH_HOT_PATH void sw_composition_cap(const InterseqProfile& profile,
                                     const Code* cols, std::size_t columns,
                                     simd::IsaLevel isa, Score* lane_cap);

/// What one sw_ungapped_tiled_u8 call did.
struct FilterSweep {
    /// Lanes that saturated a tile while still undecided: their bound
    /// is clipped, so they must be treated as survivors.
    std::uint64_t saturated = 0;
    std::size_t tiles = 0;          ///< row tiles swept
    std::size_t tiles_skipped = 0;  ///< row tiles the early exit avoided
};

/// Stage-1 bound of the whole query over one cohort, swept in the
/// filter_tile_count() balanced row tiles of sw_ungapped_interseq_u8.
///
/// With `tau` <= 0 every tile is swept and lane_bound[0..lanes)
/// receives each lane's plain tile sum. With `tau` > 0 each lane is
/// decided before the first tile and after every tile: it is pruned
/// once min(partial + unswept-row bound, composition cap) < tau, and
/// survives once partial >= tau or a tile saturates it (its cap being
/// >= tau, or it would have been pruned already). The sweep stops as
/// soon as every lane is decided, and lane_bound[l] receives
/// min(partial + unswept-row bound, cap) — for unsaturated lanes a
/// sound upper bound on the gapped score, below tau exactly for the
/// pruned lanes. Single-tile queries, where the exact cap could save
/// at most the one tile, use the uniform cap columns * max col_cap.
///
/// Resuming: with `row_begin` > 0 — a tile boundary, a multiple of
/// filter_tile_rows() — the rows before it are taken as swept, and on
/// entry lane_bound[l] holds lane l's summed unsaturated tile bounds
/// over them (with `row_begin` 0 it is ignored). The result is that of
/// one call from row 0 that swept those tiles. Only the lanes in
/// `lanes` are decided or reported saturated; the others never keep
/// the sweep going.
SWH_HOT_PATH FilterSweep sw_ungapped_tiled_u8(
    const InterseqProfile& profile, const Code* cols, std::size_t columns,
    GapPenalty gap, simd::IsaLevel isa, ScanScratch& scratch, Score tau,
    Score* lane_bound, std::size_t row_begin = 0,
    std::uint64_t lanes = ~std::uint64_t{0});

}  // namespace swh::align
