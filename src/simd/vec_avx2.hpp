#pragma once

// 256-bit backend (the AVX2 width) of the ISA tier SWH_TIER: AVX2 at v3,
// plus AVX-512 VBMI and VL at v4. A tier header (simd/tier.hpp).

#include <immintrin.h>

#include <cstdint>

#include "simd/tier.hpp"

SWH_TIER_BEGIN
namespace swh::simd::SWH_TIER_NS {

namespace detail {

/// Shifts a 256-bit register left by `Bytes` across the 128-bit lane
/// boundary (VPALIGNR only shifts within lanes). The incoming low lane is
/// zero, so lane 0 of the result receives 0 — exactly what the striped
/// rotation needs.
template <int Bytes>
inline __m256i shl_256(__m256i v) {
    // t = [ low(v), 0 ] : selector 0x08 -> dst_lo = zero, dst_hi = src_lo.
    const __m256i t = _mm256_permute2x128_si256(v, v, 0x08);
    return _mm256_alignr_epi8(v, t, 16 - Bytes);
}

}  // namespace detail

/// 32 unsigned 8-bit lanes See vec_scalar.hpp for the contract.
struct U8x32 {
    using lane_type = std::uint8_t;
    static constexpr int kLanes = 32;

    __m256i v;

    static U8x32 zero() { return {_mm256_setzero_si256()}; }

    static U8x32 splat(std::uint8_t x) {
        return {_mm256_set1_epi8(static_cast<char>(x))};
    }

    static U8x32 load(const std::uint8_t* p) {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
    }

    void store(std::uint8_t* p) const {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }

    U8x32 shl_lane() const { return {detail::shl_256<1>(v)}; }

    std::uint8_t hmax() const {
        const __m128i lo = _mm256_castsi256_si128(v);
        const __m128i hi = _mm256_extracti128_si256(v, 1);
        __m128i m = _mm_max_epu8(lo, hi);
        m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
        return static_cast<std::uint8_t>(_mm_cvtsi128_si32(m) & 0xFF);
    }
};

inline U8x32 adds(U8x32 a, U8x32 b) {
    return {_mm256_adds_epu8(a.v, b.v)};
}

inline U8x32 subs(U8x32 a, U8x32 b) {
    return {_mm256_subs_epu8(a.v, b.v)};
}

inline U8x32 vmax(U8x32 a, U8x32 b) { return {_mm256_max_epu8(a.v, b.v)}; }

inline bool any_gt(U8x32 a, U8x32 b) {
    const __m256i diff = _mm256_subs_epu8(a.v, b.v);
    const __m256i eq0 = _mm256_cmpeq_epi8(diff, _mm256_setzero_si256());
    return _mm256_movemask_epi8(eq0) != -1;
}

/// 32 signed 8-bit lanes.
struct S8x32 {
    using lane_type = std::int8_t;
    static constexpr int kLanes = 32;

    __m256i v;

    static S8x32 splat(std::int8_t x) { return {_mm256_set1_epi8(x)}; }

    static S8x32 load(const std::int8_t* p) {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
    }

    void store(std::int8_t* p) const {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
};

inline S8x32 adds(S8x32 a, S8x32 b) {
    return {_mm256_adds_epi8(a.v, b.v)};
}

inline S8x32 subs(S8x32 a, S8x32 b) {
    return {_mm256_subs_epi8(a.v, b.v)};
}

inline S8x32 vmax(S8x32 a, S8x32 b) { return {_mm256_max_epi8(a.v, b.v)}; }

/// Per-lane gather from a 32-entry int8 table (indices < 32): one VPERMB
/// at v4; at v3 each 16-byte table half is duplicated across both
/// 128-bit lanes and the VPSHUFB results are selected on index bit 4.
inline S8x32 lookup32(const std::int8_t* table, U8x32 idx) {
    const __m256i tbl =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(table));
#if SWH_TIER >= 4
    // The all-ones zero-mask form is the same VPERMB; the plain
    // intrinsic trips gcc 12's -Wmaybe-uninitialized in its header.
    return {_mm256_maskz_permutexvar_epi8(~__mmask32{0}, idx.v, tbl)};
#else
    const __m256i lo = _mm256_permute4x64_epi64(tbl, 0x44);
    const __m256i hi = _mm256_permute4x64_epi64(tbl, 0xEE);
    const __m256i sel = _mm256_cmpgt_epi8(idx.v, _mm256_set1_epi8(15));
    return {_mm256_blendv_epi8(_mm256_shuffle_epi8(lo, idx.v),
                               _mm256_shuffle_epi8(hi, idx.v), sel)};
#endif
}

/// 16 signed 16-bit lanes.
struct I16x16 {
    using lane_type = std::int16_t;
    static constexpr int kLanes = 16;

    __m256i v;

    static I16x16 zero() { return {_mm256_setzero_si256()}; }

    static I16x16 splat(std::int16_t x) { return {_mm256_set1_epi16(x)}; }

    static I16x16 load(const std::int16_t* p) {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
    }

    void store(std::int16_t* p) const {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }

    I16x16 shl_lane() const { return {detail::shl_256<2>(v)}; }

    std::int16_t hmax() const {
        const __m128i lo = _mm256_castsi256_si128(v);
        const __m128i hi = _mm256_extracti128_si256(v, 1);
        __m128i m = _mm_max_epi16(lo, hi);
        m = _mm_max_epi16(m, _mm_srli_si128(m, 8));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
        m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
        return static_cast<std::int16_t>(_mm_cvtsi128_si32(m) & 0xFFFF);
    }
};

inline I16x16 adds(I16x16 a, I16x16 b) {
    return {_mm256_adds_epi16(a.v, b.v)};
}

inline I16x16 subs(I16x16 a, I16x16 b) {
    return {_mm256_subs_epi16(a.v, b.v)};
}

inline I16x16 vmax(I16x16 a, I16x16 b) {
    return {_mm256_max_epi16(a.v, b.v)};
}

inline I16x16 vmin(I16x16 a, I16x16 b) {
    return {_mm256_min_epi16(a.v, b.v)};
}

inline bool any_gt(I16x16 a, I16x16 b) {
    return _mm256_movemask_epi8(_mm256_cmpgt_epi16(a.v, b.v)) != 0;
}

/// Sign-extends lanes 0..15 of an s8 vector to i16, in lane order.
inline I16x16 widen_lo(S8x32 a) {
    return {_mm256_cvtepi8_epi16(_mm256_castsi256_si128(a.v))};
}

/// Sign-extends lanes 16..31.
inline I16x16 widen_hi(S8x32 a) {
    return {_mm256_cvtepi8_epi16(_mm256_extracti128_si256(a.v, 1))};
}

}  // namespace swh::simd::SWH_TIER_NS
SWH_TIER_END
