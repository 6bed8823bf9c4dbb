#pragma once

#if defined(__SSE2__)

#include <emmintrin.h>
#if defined(__SSSE3__)
#include <tmmintrin.h>
#endif
#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif
#if defined(__AVX512VBMI__) && defined(__AVX512VL__)
#include <immintrin.h>
#endif

#include <cstdint>

namespace swh::simd {

/// 16 unsigned 8-bit lanes (SSE2). See vec_scalar.hpp for the interface
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

    friend U8x16 adds(U8x16 a, U8x16 b) { return {_mm_adds_epu8(a.v, b.v)}; }
    friend U8x16 subs(U8x16 a, U8x16 b) { return {_mm_subs_epu8(a.v, b.v)}; }
    friend U8x16 vmax(U8x16 a, U8x16 b) { return {_mm_max_epu8(a.v, b.v)}; }

    U8x16 shl_lane() const { return {_mm_slli_si128(v, 1)}; }

    friend bool any_gt(U8x16 a, U8x16 b) {
        // Unsigned "a > b" == saturating a-b is nonzero in some lane.
        const __m128i diff = _mm_subs_epu8(a.v, b.v);
        const __m128i eq0 = _mm_cmpeq_epi8(diff, _mm_setzero_si128());
        return _mm_movemask_epi8(eq0) != 0xFFFF;
    }

    std::uint8_t hmax() const {
        __m128i m = _mm_max_epu8(v, _mm_srli_si128(v, 8));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
        return static_cast<std::uint8_t>(_mm_cvtsi128_si32(m) & 0xFF);
    }
};

/// 16 signed 8-bit lanes (SSE2). Signed byte max is SSE4.1; plain
/// SSE2 flips the sign bits around the unsigned max.
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

    friend S8x16 adds(S8x16 a, S8x16 b) { return {_mm_adds_epi8(a.v, b.v)}; }
    friend S8x16 subs(S8x16 a, S8x16 b) { return {_mm_subs_epi8(a.v, b.v)}; }
    friend S8x16 vmax(S8x16 a, S8x16 b) {
#if defined(__SSE4_1__)
        return {_mm_max_epi8(a.v, b.v)};
#else
        const __m128i sign = _mm_set1_epi8(static_cast<char>(0x80));
        return {_mm_xor_si128(_mm_max_epu8(_mm_xor_si128(a.v, sign),
                                           _mm_xor_si128(b.v, sign)),
                              sign)};
#endif
    }
};

/// Per-lane gather from a 32-entry int8 table (indices < 32). With
/// AVX-512VBMI+VL this is one VPERMT2B (index bit 4 picks the table
/// half); with SSSE3 two PSHUFBs selected on index bit 4; the
/// plain-SSE2 fallback gathers through memory (correct, slower — only
/// hit on builds without SSSE3).
inline S8x16 lookup32(const std::int8_t* table, U8x16 idx) {
#if defined(__SSSE3__)
    const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(table));
    const __m128i hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(table + 16));
#if defined(__AVX512VBMI__) && defined(__AVX512VL__)
    return {_mm_permutex2var_epi8(lo, idx.v, hi)};
#else
    // Indices are < 32, so the signed compare against 15 is exact;
    // PSHUFB uses only the low 4 index bits for the in-table slot.
    const __m128i sel = _mm_cmpgt_epi8(idx.v, _mm_set1_epi8(15));
    const __m128i rl = _mm_shuffle_epi8(lo, idx.v);
    const __m128i rh = _mm_shuffle_epi8(hi, idx.v);
    return {_mm_or_si128(_mm_andnot_si128(sel, rl), _mm_and_si128(sel, rh))};
#endif
#else
    alignas(16) std::uint8_t ix[16];
    alignas(16) std::int8_t out[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(ix), idx.v);
    for (int i = 0; i < 16; ++i) out[i] = table[ix[i] & 31];
    return {_mm_load_si128(reinterpret_cast<const __m128i*>(out))};
#endif
}

/// 8 signed 16-bit lanes (SSE2).
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

    friend I16x8 adds(I16x8 a, I16x8 b) { return {_mm_adds_epi16(a.v, b.v)}; }
    friend I16x8 subs(I16x8 a, I16x8 b) { return {_mm_subs_epi16(a.v, b.v)}; }
    friend I16x8 vmax(I16x8 a, I16x8 b) { return {_mm_max_epi16(a.v, b.v)}; }
    friend I16x8 vmin(I16x8 a, I16x8 b) { return {_mm_min_epi16(a.v, b.v)}; }

    I16x8 shl_lane() const { return {_mm_slli_si128(v, 2)}; }

    friend bool any_gt(I16x8 a, I16x8 b) {
        return _mm_movemask_epi8(_mm_cmpgt_epi16(a.v, b.v)) != 0;
    }

    std::int16_t hmax() const {
        __m128i m = _mm_max_epi16(v, _mm_srli_si128(v, 8));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
        return static_cast<std::int16_t>(_mm_cvtsi128_si32(m) & 0xFFFF);
    }
};

/// Sign-extends lanes 0..7 of an s8 vector to i16, in lane order.
inline I16x8 widen_lo(S8x16 a) {
#if defined(__SSE4_1__)
    return {_mm_cvtepi8_epi16(a.v)};
#else
    return {_mm_srai_epi16(_mm_unpacklo_epi8(a.v, a.v), 8)};
#endif
}

/// Sign-extends lanes 8..15.
inline I16x8 widen_hi(S8x16 a) {
    return {_mm_srai_epi16(_mm_unpackhi_epi8(a.v, a.v), 8)};
}

}  // namespace swh::simd

#endif  // __SSE2__
