#pragma once

// 512-bit backend (the AVX512 width) of the ISA tier v4: AVX-512 BW, VL
// and VBMI. A tier header (simd/tier.hpp).

#include <immintrin.h>

#include <cstdint>

#include "simd/tier.hpp"

SWH_TIER_BEGIN
namespace swh::simd::SWH_TIER_NS {

namespace detail512 {

/// Shifts a 512-bit register left by `Bytes` (< 16) across 128-bit lane
/// boundaries: VPALIGNR is per-lane, so feed it each lane's predecessor
/// (with zeros entering lane 0).
template <int Bytes>
inline __m512i shl_512(__m512i v) {
    // prev = [0, lane0, lane1, lane2]: shuffle lanes down by one, zeroing
    // lane 0 via the mask (16 dwords; lane 0 = dwords 0..3).
    const __m512i prev = _mm512_maskz_shuffle_i32x4(
        0xFFF0, v, v, _MM_SHUFFLE(2, 1, 0, 0));
    return _mm512_alignr_epi8(v, prev, 16 - Bytes);
}

/// The low and high 256-bit halves. The zero-mask extracts compile to
/// the same instructions as the plain cast and extract (a register
/// rename, VEXTRACTI64X4), which trip gcc 12's -Wmaybe-uninitialized
/// in its headers.
inline __m256i lo_half(__m512i v) {
    return _mm512_maskz_extracti64x4_epi64(__mmask8{0xF}, v, 0);
}

inline __m256i hi_half(__m512i v) {
    return _mm512_maskz_extracti64x4_epi64(__mmask8{0xF}, v, 1);
}

}  // namespace detail512

/// 64 unsigned 8-bit lanes. Interface contract as in vec_scalar.hpp.
struct U8x64 {
    using lane_type = std::uint8_t;
    static constexpr int kLanes = 64;

    __m512i v;

    static U8x64 zero() { return {_mm512_setzero_si512()}; }

    static U8x64 splat(std::uint8_t x) {
        return {_mm512_set1_epi8(static_cast<char>(x))};
    }

    static U8x64 load(const std::uint8_t* p) {
        return {_mm512_loadu_si512(p)};
    }

    void store(std::uint8_t* p) const { _mm512_storeu_si512(p, v); }

    U8x64 shl_lane() const { return {detail512::shl_512<1>(v)}; }

    std::uint8_t hmax() const {
        const __m256i lo = detail512::lo_half(v);
        const __m256i hi = detail512::hi_half(v);
        __m256i m256 = _mm256_max_epu8(lo, hi);
        __m128i m = _mm_max_epu8(_mm256_castsi256_si128(m256),
                                 _mm256_extracti128_si256(m256, 1));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
        return static_cast<std::uint8_t>(_mm_cvtsi128_si32(m) & 0xFF);
    }
};

inline U8x64 adds(U8x64 a, U8x64 b) {
    return {_mm512_adds_epu8(a.v, b.v)};
}

inline U8x64 subs(U8x64 a, U8x64 b) {
    return {_mm512_subs_epu8(a.v, b.v)};
}

inline U8x64 vmax(U8x64 a, U8x64 b) {
    return {_mm512_max_epu8(a.v, b.v)};
}

inline bool any_gt(U8x64 a, U8x64 b) {
    return _mm512_cmpgt_epu8_mask(a.v, b.v) != 0;
}

/// 64 signed 8-bit lanes.
struct S8x64 {
    using lane_type = std::int8_t;
    static constexpr int kLanes = 64;

    __m512i v;

    static S8x64 splat(std::int8_t x) { return {_mm512_set1_epi8(x)}; }

    static S8x64 load(const std::int8_t* p) {
        return {_mm512_loadu_si512(p)};
    }

    void store(std::int8_t* p) const { _mm512_storeu_si512(p, v); }
};

inline S8x64 adds(S8x64 a, S8x64 b) {
    return {_mm512_adds_epi8(a.v, b.v)};
}

inline S8x64 subs(S8x64 a, S8x64 b) {
    return {_mm512_subs_epi8(a.v, b.v)};
}

inline S8x64 vmax(S8x64 a, S8x64 b) {
    return {_mm512_max_epi8(a.v, b.v)};
}

/// Per-lane gather from a 32-entry int8 table (indices < 32): one VPERMB
/// (the table broadcast twice fills all 64 permute slots; indices stay
/// below 32 so only the first copy is ever selected).
inline S8x64 lookup32(const std::int8_t* table, U8x64 idx) {
    const __m512i tbl = _mm512_maskz_broadcast_i64x4(
        __mmask8{0xFF},
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(table)));
    return {_mm512_maskz_permutexvar_epi8(~__mmask64{0}, idx.v, tbl)};
}

/// 32 signed 16-bit lanes.
struct I16x32 {
    using lane_type = std::int16_t;
    static constexpr int kLanes = 32;

    __m512i v;

    static I16x32 zero() { return {_mm512_setzero_si512()}; }

    static I16x32 splat(std::int16_t x) { return {_mm512_set1_epi16(x)}; }

    static I16x32 load(const std::int16_t* p) {
        return {_mm512_loadu_si512(p)};
    }

    void store(std::int16_t* p) const { _mm512_storeu_si512(p, v); }

    I16x32 shl_lane() const { return {detail512::shl_512<2>(v)}; }

    std::int16_t hmax() const {
        const __m256i lo = detail512::lo_half(v);
        const __m256i hi = detail512::hi_half(v);
        __m256i m256 = _mm256_max_epi16(lo, hi);
        __m128i m = _mm_max_epi16(_mm256_castsi256_si128(m256),
                                  _mm256_extracti128_si256(m256, 1));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 8));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
        return static_cast<std::int16_t>(_mm_cvtsi128_si32(m) & 0xFFFF);
    }
};

inline I16x32 adds(I16x32 a, I16x32 b) {
    return {_mm512_adds_epi16(a.v, b.v)};
}

inline I16x32 subs(I16x32 a, I16x32 b) {
    return {_mm512_subs_epi16(a.v, b.v)};
}

inline I16x32 vmax(I16x32 a, I16x32 b) {
    return {_mm512_max_epi16(a.v, b.v)};
}

inline I16x32 vmin(I16x32 a, I16x32 b) {
    return {_mm512_min_epi16(a.v, b.v)};
}

inline bool any_gt(I16x32 a, I16x32 b) {
    return _mm512_cmpgt_epi16_mask(a.v, b.v) != 0;
}

/// Sign-extends lanes 0..31 of an s8 vector to i16, in lane order.
inline I16x32 widen_lo(S8x64 a) {
    return {_mm512_cvtepi8_epi16(detail512::lo_half(a.v))};
}

/// Sign-extends lanes 32..63.
inline I16x32 widen_hi(S8x64 a) {
    return {_mm512_cvtepi8_epi16(detail512::hi_half(a.v))};
}

}  // namespace swh::simd::SWH_TIER_NS
SWH_TIER_END
