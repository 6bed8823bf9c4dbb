#include "align/sw_scalar.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace swh::align {

DpMatrix sw_matrix_linear(std::span<const Code> s, std::span<const Code> t,
                          const ScoreMatrix& matrix, Score gap) {
    SWH_REQUIRE(gap >= 0, "gap penalty must be non-negative");
    DpMatrix dp;
    dp.rows = s.size() + 1;
    dp.cols = t.size() + 1;
    dp.h.assign(dp.rows * dp.cols, 0);
    for (std::size_t i = 1; i <= s.size(); ++i) {
        for (std::size_t j = 1; j <= t.size(); ++j) {
            const Score diag =
                dp.at(i - 1, j - 1) + matrix.at(s[i - 1], t[j - 1]);
            const Score up = dp.at(i - 1, j) - gap;
            const Score left = dp.at(i, j - 1) - gap;
            dp.at(i, j) = std::max({diag, up, left, Score{0}});
        }
    }
    return dp;
}

Score sw_score_linear(std::span<const Code> s, std::span<const Code> t,
                      const ScoreMatrix& matrix, Score gap) {
    SWH_REQUIRE(gap >= 0, "gap penalty must be non-negative");
    std::vector<Score> row(t.size() + 1, 0);
    Score best = 0;
    for (std::size_t i = 1; i <= s.size(); ++i) {
        Score diag = row[0];  // H(i-1, j-1)
        for (std::size_t j = 1; j <= t.size(); ++j) {
            const Score h = std::max(
                {diag + matrix.at(s[i - 1], t[j - 1]), row[j] - gap,
                 row[j - 1] - gap, Score{0}});
            diag = row[j];
            row[j] = h;
            best = std::max(best, h);
        }
    }
    return best;
}

namespace {

// Shared core for sw_score_affine / sw_end_affine.
//
// Gotoh recurrences (H over s[1..i], t[1..j]):
//   E(i,j) = max(E(i,j-1), H(i,j-1) - open) - extend   (gap in s, same row)
//   F(i,j) = max(F(i-1,j), H(i-1,j) - open) - extend   (gap in t, same col)
//   H(i,j) = max(H(i-1,j-1) + sub(s_i,t_j), E(i,j), F(i,j), 0)
// E is a running scalar along the row; F needs one slot per column.
// Boundary E(i,0) = F(0,j) = "no open gap"; initialising those to 0 is
// safe because the bogus chains they seed stay strictly negative and H is
// clamped at 0 (see tests/align/gotoh_boundary_test).
template <bool TrackEnd>
LocalEnd gotoh_core(std::span<const Code> s, std::span<const Code> t,
                    const ScoreMatrix& matrix, GapPenalty gap, Score* h_row,
                    Score* f_col) {
    SWH_REQUIRE(gap.open >= 0 && gap.extend >= 0,
                "gap penalties must be non-negative");
    LocalEnd best;
    std::fill_n(h_row, t.size() + 1, Score{0});  // H(i-1,*) rolling to H(i,*)
    std::fill_n(f_col, t.size() + 1, Score{0});  // F(i-1,*) rolling to F(i,*)
    for (std::size_t i = 1; i <= s.size(); ++i) {
        Score h_diag = h_row[0];  // H(i-1, j-1)
        Score e = 0;              // E(i, j) running along the row
        for (std::size_t j = 1; j <= t.size(); ++j) {
            // h_row[j-1] already holds H(i, j-1); h_row[j] still H(i-1, j).
            e = std::max(e, h_row[j - 1] - gap.open) - gap.extend;
            f_col[j] = std::max(f_col[j], h_row[j] - gap.open) - gap.extend;
            const Score h = std::max(
                {h_diag + matrix.at(s[i - 1], t[j - 1]), e, f_col[j],
                 Score{0}});
            h_diag = h_row[j];
            h_row[j] = h;
            if constexpr (TrackEnd) {
                if (h > best.score) {
                    best.score = h;
                    best.s_end = i - 1;
                    best.t_end = j - 1;
                }
            } else {
                best.score = std::max(best.score, h);
            }
        }
    }
    return best;
}

}  // namespace

Score sw_score_affine(std::span<const Code> s, std::span<const Code> t,
                      const ScoreMatrix& matrix, GapPenalty gap) {
    std::vector<Score> h_row(t.size() + 1), f_col(t.size() + 1);
    return gotoh_core<false>(s, t, matrix, gap, h_row.data(), f_col.data())
        .score;
}

Score sw_score_affine_rows(std::span<const Code> s, std::span<const Code> t,
                           const ScoreMatrix& matrix, GapPenalty gap,
                           Score* h_row, Score* f_col) {
    return gotoh_core<false>(s, t, matrix, gap, h_row, f_col).score;
}

Score sw_score_banded(std::span<const Code> s, std::span<const Code> t,
                      const ScoreMatrix& matrix, GapPenalty gap,
                      std::size_t half_width, Score* h_band, Score* f_band) {
    SWH_REQUIRE(gap.open >= 0 && gap.extend >= 0,
                "gap penalties must be non-negative");
    const std::size_t m = s.size();
    const std::size_t n = t.size();
    if (m == 0 || n == 0) return 0;
    // Row i covers columns [lo, hi] and keeps column j at index j - lo.
    // Both ends only move right as i grows, so writing row i over row
    // i-1 left to right never clobbers a value before it is read: row
    // i-1's column j sits at index j - prev_lo >= j - lo. Columns
    // outside row i-1's band read as H = 0 (the empty alignment) and
    // F = 0 (no open gap, safe as in gotoh_core).
    std::size_t prev_lo = 1;
    std::size_t prev_hi = 0;  // row 0: empty band
    const auto in_prev = [&](std::size_t j) {
        return j >= prev_lo && j <= prev_hi;
    };
    Score best = 0;
    for (std::size_t i = 1; i <= m; ++i) {
        const std::size_t center = (i * n + m / 2) / m;
        const std::size_t lo = center > half_width ? center - half_width : 1;
        const std::size_t hi = std::min(n, center + half_width);
        Score h_diag = in_prev(lo - 1) ? h_band[lo - 1 - prev_lo] : 0;
        Score h_left = 0;  // H(i, lo-1): outside the band
        Score e = 0;
        for (std::size_t j = lo; j <= hi; ++j) {
            const bool up = in_prev(j);
            const Score h_up = up ? h_band[j - prev_lo] : 0;
            const Score f_up = up ? f_band[j - prev_lo] : 0;
            e = std::max(e, h_left - gap.open) - gap.extend;
            const Score f = std::max(f_up, h_up - gap.open) - gap.extend;
            const Score h = std::max(
                {h_diag + matrix.at(s[i - 1], t[j - 1]), e, f, Score{0}});
            h_band[j - lo] = h;
            f_band[j - lo] = f;
            h_diag = h_up;
            h_left = h;
            best = std::max(best, h);
        }
        prev_lo = lo;
        prev_hi = hi;
    }
    return best;
}

LocalEnd sw_end_affine(std::span<const Code> s, std::span<const Code> t,
                       const ScoreMatrix& matrix, GapPenalty gap) {
    std::vector<Score> h_row(t.size() + 1), f_col(t.size() + 1);
    return gotoh_core<true>(s, t, matrix, gap, h_row.data(), f_col.data());
}

}  // namespace swh::align
