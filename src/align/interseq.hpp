#pragma once

// Inter-sequence Smith-Waterman scan kernels (SWIPE / SWAPHI style):
// one database subject per SIMD lane, W subjects scored at once. Unlike
// the intra-sequence striped kernel (Farrar), throughput does not
// degrade on short queries — there is no lazy-F correction pass, no
// query-padding waste, and the per-column work is a plain row sweep —
// so the scan dispatcher runs them on every cohort whose real residues
// fill enough of its W lanes (DatabaseScanner::min_fill_pct, a bar that
// falls with query length) and scores the rest per subject with the
// striped kernel.
//
// The subjects come from a lane-interleaved cohort layout (see
// db::PackedDatabase::interleaved): W consecutive slots of the
// longest-first scan order form a cohort, residues stored column-major
// (column j holds residue j of every lane), short lanes padded with
// kPadCode. Scoring uses a
// TRANSPOSED query profile: row i is a 32-entry table of raw int8
// scores of query residue i against every alphabet symbol, gathered per
// lane by the subject residue (simd lookup32). This needs every residue
// code, including the padding sentinel, to fit in 5 bits, and every
// score to fit int8 — hence the gates in interseq_supported().

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "align/score_matrix.hpp"
#include "align/sequence.hpp"
#include "simd/arch.hpp"
#include "util/annotations.hpp"

namespace swh::align {

class ScanScratch;

/// One width-W cohort of the lane-interleaved database layout.
struct CohortDesc {
    std::uint64_t offset = 0;     ///< Code offset into the cohort arena
    std::uint64_t residues = 0;   ///< real residues (sum of member lengths)
    std::uint32_t columns = 0;    ///< stored columns = longest member length
    std::uint32_t first_slot = 0; ///< scan slot of lane 0
    std::uint32_t lanes_used = 0; ///< members; tail cohort may be partial
};

/// Non-owning view of a lane-interleaved cohort layout. Column j of a
/// cohort is `lanes` consecutive bytes at `arena + offset + j*lanes`
/// (pad lanes past lanes_used hold only pad_code). Lane l of cohort d
/// is the subject at scan-order slot `d.first_slot + l`.
struct InterleavedCohorts {
    const Code* arena = nullptr;
    const CohortDesc* cohorts = nullptr;
    std::size_t count = 0;
    int lanes = 0;
    Code pad_code = 0;
};

/// Transposed query profile for the inter-sequence kernels: row i holds
/// the raw int8 score of query residue i against every alphabet symbol,
/// padded to a 32-entry lookup table (slots past the alphabet — which
/// include kPadCode — hold -128, the most-penalising score, so padded
/// lanes decay and retire).
struct InterseqProfile {
    static constexpr std::size_t kStride = 32;  ///< LUT row width
    /// Padding sentinel residue: always the top 5-bit code, so it can
    /// never collide with a real symbol (interseq_supported() requires
    /// alphabet size <= 31).
    static constexpr Code kPadCode = 31;

    std::size_t query_len = 0;
    /// The matrix bias (>= 0) of the striped u8 kernel: the u8 kernels
    /// flag a lane at `score + bias >= 255`, as that kernel does.
    Score bias = 0;
    Score max_raw = 0;   ///< largest entry; bounds one i16 add
    std::size_t symbols = 0;
    std::vector<std::int8_t> data;  ///< query_len rows of kStride
    std::size_t align_pad = 0;       ///< bytes from data.data() to base
    /// Query-row bound of the prefilter (align/ungapped.hpp):
    /// row_cap_prefix[i] = sum over rows r < i of
    /// max(0, max_a s(q_r, a)); query_len + 1 entries.
    std::vector<Score> row_cap_prefix;
    /// Composition-cap table of the prefilter: col_cap[a] =
    /// max(0, max_i s(q_i, a)) for every alphabet symbol a, 0 past the
    /// alphabet (kPadCode included). Every entry is <= max(0, max_raw).
    std::array<std::int8_t, kStride> col_cap{};

    const std::int8_t* row(std::size_t i) const {
        return data.data() + align_pad + i * kStride;
    }
};

/// Query rows per tile of the inter-sequence kernels: each tile's DP
/// row arrays (two query-tile rows of W-lane vectors) stay L1/L2
/// resident where a monolithic sweep of a 2000+ residue query spills.
/// The scan prefilter tiles the query on its own, shorter height
/// (align::kFilterTileRows).
constexpr std::size_t kInterseqTileRows = 256;

/// Number of query tiles the kernels cut a query of `qlen` rows into:
/// balanced tiles (sizes differ by at most one row) of at most
/// kInterseqTileRows rows each; one tile for short queries.
constexpr std::size_t interseq_tile_count(std::size_t qlen) {
    return qlen <= kInterseqTileRows
               ? std::size_t{1}
               : (qlen + kInterseqTileRows - 1) / kInterseqTileRows;
}

/// Caller-owned carried column state for the query-tiled kernels: per
/// subject column, the H values of a tile's bottom row and the running
/// vertical-gap (F) values entering the next tile. Never inside
/// ScanScratch's kernel buffers, because kernel_buffers() may move them
/// when it grows — the carried state must stay put across the per-tile
/// buffer requests; a worker's lives beside them
/// (ScanScratch::column_state()). One instance per worker thread; the
/// same instance serves u8 and i16 calls of any cohort width (the
/// buffer only ever grows).
class InterseqColumnState {
public:
    struct Arrays {
        void* h = nullptr;  ///< bottom-row H per column
        void* f = nullptr;  ///< carried F per column
    };

    /// Returns the two carried arrays, each `bytes_per_array` long and
    /// 64-byte aligned, growing the backing allocation if needed. The
    /// contents are kernel-internal scratch — callers never initialise
    /// or read them.
    Arrays arrays(std::size_t bytes_per_array);

    std::size_t capacity() const { return capacity_; }

private:
    struct Free {
        void operator()(std::byte* p) const;
    };

    std::unique_ptr<std::byte[], Free> buffer_;
    std::size_t capacity_ = 0;
};

/// True if the matrix fits the inter-sequence kernels: alphabet small
/// enough for 5-bit codes plus the padding sentinel, every entry inside
/// int8 (the profile's element type), and the biased score range inside
/// u8 (the flag bound the u8 kernels share with the striped one).
bool interseq_supported(const ScoreMatrix& matrix);

InterseqProfile build_interseq_profile(std::span<const Code> query,
                                       const ScoreMatrix& matrix);

/// 8-bit inter-sequence kernel over one cohort: `cols` points at
/// `columns` column-major residue columns of `lanes_u8(isa)` lanes.
/// The query is processed in interseq_tile_count() balanced row tiles,
/// carrying per-column H/F state through `state` so only the tile's own
/// DP rows compete for cache. Writes each lane's best score (clamped
/// to 255 - bias) to lane_best[0..lanes) and returns the
/// saturating-overflow lane mask (bit l set = lane l may have
/// saturated, same `score + bias >= 255` bound as the striped u8
/// kernel; those subjects must be settled by a wider kernel). Scores
/// and mask are the same as the striped u8 kernel's per subject —
/// tiling changes the cell visit order, not the dataflow, and every
/// value below the flag bound is exact. Residues must be pre-validated
/// (< alphabet size, or == kPadCode).
SWH_HOT_PATH std::uint64_t sw_interseq_u8_tiled(const InterseqProfile& profile,
                                   const Code* cols, std::size_t columns,
                                   GapPenalty gap, simd::IsaLevel isa,
                                   ScanScratch& scratch,
                                   InterseqColumnState& state,
                                   std::uint8_t* lane_best);

/// Outcome of one sw_interseq_i16_tiled pass.
struct I16Pass {
    /// Lanes whose `score + max_raw >= 32767` (the striped i16 bound).
    std::uint64_t overflow = 0;
    /// Tile-columns of the pass (query tiles x subject columns), and
    /// the ones skipped because no lane could use them.
    std::uint64_t columns = 0;
    std::uint64_t columns_skipped = 0;
};

/// 16-bit companion for the 8 -> 16 escalation: the same tiling over a
/// `lanes_u8(isa)`-wide interleave, of which it scores lanes
/// [0, lanes_i16(isa)) — one i16 vector — and never reads the rest.
/// Writes those lanes' best scores (clamped to 32767) to
/// lane_best[0..lanes_i16(isa)) and returns their overflow mask. The
/// pass skips the tile columns through which no path can beat a lane's
/// running best (DESIGN.md "Bound-pruned drain"); `seed`, when not
/// null, starts that best at seed[l] — lanes_i16(isa) entries in
/// [0, 32767], each at most lane l's exact score (a banded score, say)
/// — so more columns are skipped. Scores and mask are those of the full
/// sweep either way.
SWH_HOT_PATH I16Pass sw_interseq_i16_tiled(const InterseqProfile& profile,
                                           const Code* cols,
                                           std::size_t columns,
                                           GapPenalty gap, simd::IsaLevel isa,
                                           ScanScratch& scratch,
                                           InterseqColumnState& state,
                                           const std::int16_t* seed,
                                           std::int16_t* lane_best);

}  // namespace swh::align
