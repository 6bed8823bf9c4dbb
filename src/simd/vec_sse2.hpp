#pragma once

// 128-bit backend (the SSE2 width) of the ISA tier SWH_TIER: SSSE3 and
// SSE4.1 at v2 and v3, plus AVX-512 VBMI and VL at v4. A tier header
// (simd/tier.hpp).

#include <immintrin.h>

#include <cstdint>

#include "simd/tier.hpp"

SWH_TIER_BEGIN
namespace swh::simd::SWH_TIER_NS {

/// 16 unsigned 8-bit lanes. See vec_scalar.hpp for the interface
/// contract shared by all backends.
struct U8x16 {
    using lane_type = std::uint8_t;
    static constexpr int kLanes = 16;

    __m128i v;

    static U8x16 zero() { return {_mm_setzero_si128()}; }

    static U8x16 splat(std::uint8_t x) {
        return {_mm_set1_epi8(static_cast<char>(x))};
    }

    static U8x16 load(const std::uint8_t* p) {
        return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
    }

    void store(std::uint8_t* p) const {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    }

    U8x16 shl_lane() const { return {_mm_slli_si128(v, 1)}; }

    std::uint8_t hmax() const {
        __m128i m = _mm_max_epu8(v, _mm_srli_si128(v, 8));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
        return static_cast<std::uint8_t>(_mm_cvtsi128_si32(m) & 0xFF);
    }
};

inline U8x16 adds(U8x16 a, U8x16 b) { return {_mm_adds_epu8(a.v, b.v)}; }
inline U8x16 subs(U8x16 a, U8x16 b) { return {_mm_subs_epu8(a.v, b.v)}; }
inline U8x16 vmax(U8x16 a, U8x16 b) { return {_mm_max_epu8(a.v, b.v)}; }

inline bool any_gt(U8x16 a, U8x16 b) {
    // Unsigned "a > b" == saturating a-b is nonzero in some lane.
    const __m128i diff = _mm_subs_epu8(a.v, b.v);
    const __m128i eq0 = _mm_cmpeq_epi8(diff, _mm_setzero_si128());
    return _mm_movemask_epi8(eq0) != 0xFFFF;
}

/// 16 signed 8-bit lanes.
struct S8x16 {
    using lane_type = std::int8_t;
    static constexpr int kLanes = 16;

    __m128i v;

    static S8x16 splat(std::int8_t x) { return {_mm_set1_epi8(x)}; }

    static S8x16 load(const std::int8_t* p) {
        return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
    }

    void store(std::int8_t* p) const {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    }
};

inline S8x16 adds(S8x16 a, S8x16 b) { return {_mm_adds_epi8(a.v, b.v)}; }
inline S8x16 subs(S8x16 a, S8x16 b) { return {_mm_subs_epi8(a.v, b.v)}; }
inline S8x16 vmax(S8x16 a, S8x16 b) { return {_mm_max_epi8(a.v, b.v)}; }

/// Per-lane gather from a 32-entry int8 table (indices < 32): one
/// VPERMT2B at v4 (index bit 4 picks the table half), two PSHUFBs
/// selected on index bit 4 below it.
inline S8x16 lookup32(const std::int8_t* table, U8x16 idx) {
    const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(table));
    const __m128i hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(table + 16));
#if SWH_TIER >= 4
    return {_mm_permutex2var_epi8(lo, idx.v, hi)};
#else
    // Indices are < 32, so the signed compare against 15 is exact;
    // PSHUFB uses only the low 4 index bits for the in-table slot.
    const __m128i sel = _mm_cmpgt_epi8(idx.v, _mm_set1_epi8(15));
    const __m128i rl = _mm_shuffle_epi8(lo, idx.v);
    const __m128i rh = _mm_shuffle_epi8(hi, idx.v);
    return {_mm_or_si128(_mm_andnot_si128(sel, rl), _mm_and_si128(sel, rh))};
#endif
}

/// 8 signed 16-bit lanes.
struct I16x8 {
    using lane_type = std::int16_t;
    static constexpr int kLanes = 8;

    __m128i v;

    static I16x8 zero() { return {_mm_setzero_si128()}; }

    static I16x8 splat(std::int16_t x) { return {_mm_set1_epi16(x)}; }

    static I16x8 load(const std::int16_t* p) {
        return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
    }

    void store(std::int16_t* p) const {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    }

    I16x8 shl_lane() const { return {_mm_slli_si128(v, 2)}; }

    std::int16_t hmax() const {
        __m128i m = _mm_max_epi16(v, _mm_srli_si128(v, 8));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
        return static_cast<std::int16_t>(_mm_cvtsi128_si32(m) & 0xFFFF);
    }
};

inline I16x8 adds(I16x8 a, I16x8 b) { return {_mm_adds_epi16(a.v, b.v)}; }
inline I16x8 subs(I16x8 a, I16x8 b) { return {_mm_subs_epi16(a.v, b.v)}; }
inline I16x8 vmax(I16x8 a, I16x8 b) { return {_mm_max_epi16(a.v, b.v)}; }
inline I16x8 vmin(I16x8 a, I16x8 b) { return {_mm_min_epi16(a.v, b.v)}; }

inline bool any_gt(I16x8 a, I16x8 b) {
    return _mm_movemask_epi8(_mm_cmpgt_epi16(a.v, b.v)) != 0;
}

/// Sign-extends lanes 0..7 of an s8 vector to i16, in lane order.
inline I16x8 widen_lo(S8x16 a) { return {_mm_cvtepi8_epi16(a.v)}; }

/// Sign-extends lanes 8..15.
inline I16x8 widen_hi(S8x16 a) {
    return {_mm_srai_epi16(_mm_unpackhi_epi8(a.v, a.v), 8)};
}

}  // namespace swh::simd::SWH_TIER_NS
SWH_TIER_END
