#pragma once

#include <span>
#include <vector>

#include "align/score_matrix.hpp"

namespace swh::align {

/// Dense (m+1) x (n+1) dynamic-programming matrix, row-major, row 0 and
/// column 0 are the zero boundary. Kept simple for inspection in examples
/// and tests; production scoring uses the O(n)-space kernels.
struct DpMatrix {
    std::size_t rows = 0;  ///< m + 1
    std::size_t cols = 0;  ///< n + 1
    std::vector<Score> h;

    Score at(std::size_t i, std::size_t j) const { return h[i * cols + j]; }
    Score& at(std::size_t i, std::size_t j) { return h[i * cols + j]; }
};

/// Classic Smith-Waterman with the linear gap model of the paper's
/// Eq. (1): each gap residue costs `gap` (a non-negative penalty).
/// Returns the full similarity matrix (paper Fig. 2).
DpMatrix sw_matrix_linear(std::span<const Code> s, std::span<const Code> t,
                          const ScoreMatrix& matrix, Score gap);

/// Best local score under the linear gap model; O(n) space.
Score sw_score_linear(std::span<const Code> s, std::span<const Code> t,
                      const ScoreMatrix& matrix, Score gap);

/// End coordinates of a best-scoring local alignment (0-based index of
/// the last aligned residue in each sequence). score == 0 means the empty
/// alignment, in which case the coordinates are meaningless.
struct LocalEnd {
    Score score = 0;
    std::size_t s_end = 0;
    std::size_t t_end = 0;
};

/// Gotoh affine-gap Smith-Waterman (paper SS II-A.3), O(n) space. This is
/// the exact-score oracle the SIMD kernels are validated against.
Score sw_score_affine(std::span<const Code> s, std::span<const Code> t,
                      const ScoreMatrix& matrix, GapPenalty gap);

/// Same, but with caller-provided rolling rows (each at least
/// t.size() + 1 cells; contents are overwritten). Lets batched rescans
/// (align::ScanScratch) run the int32 fallback without heap allocation.
Score sw_score_affine_rows(std::span<const Code> s, std::span<const Code> t,
                           const ScoreMatrix& matrix, GapPenalty gap,
                           Score* h_row, Score* f_col);

/// Affine Smith-Waterman restricted to a band: row i (1-based, of s)
/// spans columns j of t within `half_width` of round(i * |t| / |s|), the
/// main diagonal scaled to the matrix's shape; cells outside the band
/// are unreachable. Every path it scores is a real local alignment, so
/// the result is a lower bound on sw_score_affine, equal to it once the
/// band covers the matrix (half_width >= max(|s|, |t|)), and 0 for an
/// empty sequence. O(|s| * half_width) time; `h_band` and `f_band` are
/// caller-provided rows of at least min(|t|, 2 * half_width + 1) cells.
Score sw_score_banded(std::span<const Code> s, std::span<const Code> t,
                      const ScoreMatrix& matrix, GapPenalty gap,
                      std::size_t half_width, Score* h_band, Score* f_band);

/// Same, but also reports where the best alignment ends. Ties break
/// toward the smallest (s_end, t_end) in lexicographic order, matching
/// the traceback implementation.
LocalEnd sw_end_affine(std::span<const Code> s, std::span<const Code> t,
                       const ScoreMatrix& matrix, GapPenalty gap);

}  // namespace swh::align
