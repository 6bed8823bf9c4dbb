#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

namespace swh::simd {

// Lane-faithful scalar emulations of the vector operations the striped
// Smith-Waterman kernels need. These run the *same algorithm* as the
// intrinsic-backed types (including the striped data layout), so they
// double as a reference implementation in tests (IsaLevel::Scalar).
//
// Shared vector interface (see also vec_sse2.hpp / vec_avx2.hpp):
//   lane_type, kLanes
//   zero(), splat(x), load(p), store(p)
//   adds(a,b)   -- saturating add
//   subs(a,b)   -- saturating subtract
//   vmax(a,b)   -- lane-wise max (16-bit vectors also vmin)
//   a.shl_lane() -- shift lanes toward higher index, 0 enters at lane 0
//                   (the striped "previous row" rotation)
//   any_gt(a,b) -- true if a > b in any lane
//   a.hmax()    -- horizontal max
//
// Signed 8-bit vectors (S8, as many lanes as U8) carry the scores and
// DP values of the inter-sequence kernels, the values offset by -128 so
// that one saturating op both adds and clamps at the local-alignment
// floor:
//   splat(x), load(p), store(p)
//   adds(a,b) / subs(a,b) -- signed saturating add / subtract
//   vmax(a,b)             -- signed lane-wise max
//   lookup32(table, idx)  -- per-lane gather from a 32-entry int8 table
//                            by the lanes of a U8 index vector (< 32)
//   widen_lo(a) / widen_hi(a) -- sign-extend the low/high half of the
//                            lanes to an i16 vector, preserving lane order

template <int N>
struct U8xN {
    using lane_type = std::uint8_t;
    static constexpr int kLanes = N;

    std::array<std::uint8_t, N> lane{};

    static U8xN zero() { return {}; }

    static U8xN splat(std::uint8_t x) {
        U8xN v;
        v.lane.fill(x);
        return v;
    }

    static U8xN load(const std::uint8_t* p) {
        U8xN v;
        std::copy_n(p, N, v.lane.begin());
        return v;
    }

    void store(std::uint8_t* p) const { std::copy_n(lane.begin(), N, p); }

    friend U8xN adds(U8xN a, U8xN b) {
        U8xN r;
        for (int i = 0; i < N; ++i) {
            const int s = int(a.lane[i]) + int(b.lane[i]);
            r.lane[i] = static_cast<std::uint8_t>(std::min(s, 255));
        }
        return r;
    }

    friend U8xN subs(U8xN a, U8xN b) {
        U8xN r;
        for (int i = 0; i < N; ++i) {
            const int s = int(a.lane[i]) - int(b.lane[i]);
            r.lane[i] = static_cast<std::uint8_t>(std::max(s, 0));
        }
        return r;
    }

    friend U8xN vmax(U8xN a, U8xN b) {
        U8xN r;
        for (int i = 0; i < N; ++i) r.lane[i] = std::max(a.lane[i], b.lane[i]);
        return r;
    }

    U8xN shl_lane() const {
        U8xN r;
        r.lane[0] = 0;
        for (int i = 1; i < N; ++i) r.lane[i] = lane[i - 1];
        return r;
    }

    friend bool any_gt(U8xN a, U8xN b) {
        for (int i = 0; i < N; ++i)
            if (a.lane[i] > b.lane[i]) return true;
        return false;
    }

    std::uint8_t hmax() const {
        return *std::max_element(lane.begin(), lane.end());
    }
};

template <int N>
struct I16xN {
    using lane_type = std::int16_t;
    static constexpr int kLanes = N;

    std::array<std::int16_t, N> lane{};

    static I16xN zero() { return {}; }

    static I16xN splat(std::int16_t x) {
        I16xN v;
        v.lane.fill(x);
        return v;
    }

    static I16xN load(const std::int16_t* p) {
        I16xN v;
        std::copy_n(p, N, v.lane.begin());
        return v;
    }

    void store(std::int16_t* p) const { std::copy_n(lane.begin(), N, p); }

    friend I16xN adds(I16xN a, I16xN b) {
        I16xN r;
        for (int i = 0; i < N; ++i) {
            const int s = int(a.lane[i]) + int(b.lane[i]);
            r.lane[i] = static_cast<std::int16_t>(std::clamp(s, -32768, 32767));
        }
        return r;
    }

    friend I16xN subs(I16xN a, I16xN b) {
        I16xN r;
        for (int i = 0; i < N; ++i) {
            const int s = int(a.lane[i]) - int(b.lane[i]);
            r.lane[i] = static_cast<std::int16_t>(std::clamp(s, -32768, 32767));
        }
        return r;
    }

    friend I16xN vmax(I16xN a, I16xN b) {
        I16xN r;
        for (int i = 0; i < N; ++i) r.lane[i] = std::max(a.lane[i], b.lane[i]);
        return r;
    }

    friend I16xN vmin(I16xN a, I16xN b) {
        I16xN r;
        for (int i = 0; i < N; ++i) r.lane[i] = std::min(a.lane[i], b.lane[i]);
        return r;
    }

    I16xN shl_lane() const {
        I16xN r;
        r.lane[0] = 0;
        for (int i = 1; i < N; ++i) r.lane[i] = lane[i - 1];
        return r;
    }

    friend bool any_gt(I16xN a, I16xN b) {
        for (int i = 0; i < N; ++i)
            if (a.lane[i] > b.lane[i]) return true;
        return false;
    }

    std::int16_t hmax() const {
        return *std::max_element(lane.begin(), lane.end());
    }
};

template <int N>
struct S8xN {
    using lane_type = std::int8_t;
    static constexpr int kLanes = N;

    std::array<std::int8_t, N> lane{};

    static S8xN splat(std::int8_t x) {
        S8xN v;
        v.lane.fill(x);
        return v;
    }

    static S8xN load(const std::int8_t* p) {
        S8xN v;
        std::copy_n(p, N, v.lane.begin());
        return v;
    }

    void store(std::int8_t* p) const { std::copy_n(lane.begin(), N, p); }

    friend S8xN adds(S8xN a, S8xN b) {
        S8xN r;
        for (int i = 0; i < N; ++i) {
            const int s = int(a.lane[i]) + int(b.lane[i]);
            r.lane[i] = static_cast<std::int8_t>(std::clamp(s, -128, 127));
        }
        return r;
    }

    friend S8xN subs(S8xN a, S8xN b) {
        S8xN r;
        for (int i = 0; i < N; ++i) {
            const int s = int(a.lane[i]) - int(b.lane[i]);
            r.lane[i] = static_cast<std::int8_t>(std::clamp(s, -128, 127));
        }
        return r;
    }

    friend S8xN vmax(S8xN a, S8xN b) {
        S8xN r;
        for (int i = 0; i < N; ++i) r.lane[i] = std::max(a.lane[i], b.lane[i]);
        return r;
    }
};

template <int N>
inline S8xN<N> lookup32(const std::int8_t* table, U8xN<N> idx) {
    S8xN<N> r;
    for (int i = 0; i < N; ++i) r.lane[i] = table[idx.lane[i] & 31];
    return r;
}

template <int N>
inline I16xN<N / 2> widen_lo(S8xN<N> a) {
    I16xN<N / 2> r;
    for (int i = 0; i < N / 2; ++i) r.lane[i] = a.lane[i];
    return r;
}

template <int N>
inline I16xN<N / 2> widen_hi(S8xN<N> a) {
    I16xN<N / 2> r;
    for (int i = 0; i < N / 2; ++i) r.lane[i] = a.lane[N / 2 + i];
    return r;
}

// Default widths match SSE2 so the scalar backend produces identical
// striped layouts (and thus bit-identical intermediate states).
using U8x16s = U8xN<16>;
using S8x16s = S8xN<16>;
using I16x8s = I16xN<8>;

}  // namespace swh::simd
