#include "align/local_align.hpp"

#include <span>
#include <vector>

#include "align/sw_scalar.hpp"
#include "align/traceback.hpp"
#include "util/error.hpp"

namespace swh::align {

Alignment sw_align_affine_lowmem(std::span<const Code> s,
                                 std::span<const Code> t,
                                 const ScoreMatrix& matrix, GapPenalty gap,
                                 std::size_t max_rect_cells) {
    const LocalEnd fwd = sw_end_affine(s, t, matrix, gap);
    if (fwd.score == 0) return Alignment{};

    // Reverse pass over the prefix rectangle [0..s_end] x [0..t_end]. The
    // best local alignment of the reversed prefixes has the same optimal
    // score; its end cell maps to the start of a co-optimal alignment.
    const std::span<const Code> s_pre = s.first(fwd.s_end + 1);
    const std::span<const Code> t_pre = t.first(fwd.t_end + 1);
    const std::vector<Code> s_rev(s_pre.rbegin(), s_pre.rend());
    const std::vector<Code> t_rev(t_pre.rbegin(), t_pre.rend());
    const LocalEnd rev = sw_end_affine(s_rev, t_rev, matrix, gap);
    SWH_REQUIRE(rev.score == fwd.score,
                "reverse locate pass disagrees with forward score");

    const std::size_t s_begin = fwd.s_end - rev.s_end;
    const std::size_t t_begin = fwd.t_end - rev.t_end;
    // The reverse pass's own end (in forward coordinates) bounds the
    // rectangle that contains a full optimal alignment starting there.
    const std::size_t s_len = rev.s_end + 1;
    const std::size_t t_len = rev.t_end + 1;
    SWH_REQUIRE(s_len * t_len <= max_rect_cells,
                "alignment footprint exceeds max_rect_cells");

    Alignment sub = sw_align_affine(s.subspan(s_begin, s_len),
                                    t.subspan(t_begin, t_len), matrix, gap);
    SWH_REQUIRE(sub.score == fwd.score,
                "rectangle traceback lost the optimal score");
    sub.s_begin += s_begin;
    sub.s_end += s_begin;
    sub.t_begin += t_begin;
    sub.t_end += t_begin;
    return sub;
}

}  // namespace swh::align
