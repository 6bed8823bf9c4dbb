#pragma once

// The ISA tier a translation unit compiles its kernels for. The kernels
// exist once per simd::Tier, each copy in its own namespace
// (swh::simd::SWH_TIER_NS, swh::align::SWH_TIER_NS), and align::kernels()
// picks the copy at run time (DESIGN.md "SIMD backends").
//
// A tier translation unit defines SWH_TIER as 2, 3 or 4 before its first
// include. Every tier header (simd/vec_*.hpp but vec_scalar.hpp,
// simd/simd.hpp, align/*_kernels.hpp) first includes what it needs and
// then wraps its own code in SWH_TIER_BEGIN ... SWH_TIER_END, so only
// that code is compiled for the tier: standard-library templates keep
// the build's baseline target, and no weak symbol outside the tier's
// namespace carries the tier's instructions. gcc leaves hidden friends
// out of a target region, so the backends' operators are
// namespace-scope functions. The code selects on SWH_TIER, never on
// the compiler's ISA feature macros: they do not change inside a
// target region. The regions list features, not an arch, so the
// command line's -mtune stays; they also build when the command line
// already enables every feature. Above the x86-64-v2 floor, their
// features are exactly the ones simd::host_tier() checks.

#if SWH_TIER == 2
#define SWH_TIER_NS v2
#define SWH_TIER_TARGET "sse3,ssse3,sse4.1,sse4.2,popcnt"
#elif SWH_TIER == 3
#define SWH_TIER_NS v3
#define SWH_TIER_TARGET "sse3,ssse3,sse4.1,sse4.2,popcnt,avx,avx2"
#elif SWH_TIER == 4
#define SWH_TIER_NS v4
// One literal: a pragma does not concatenate adjacent ones.
#define SWH_TIER_TARGET \
    "sse3,ssse3,sse4.1,sse4.2,popcnt,avx,avx2,avx512f,avx512bw,avx512vl,avx512vbmi"
#else
#error "a tier translation unit defines SWH_TIER as 2, 3 or 4"
#endif

#define SWH_TIER_PRAGMA_(x) _Pragma(#x)
#define SWH_TIER_PRAGMA(x) SWH_TIER_PRAGMA_(x)
#if defined(__clang__)
#define SWH_TIER_BEGIN                                                 \
    SWH_TIER_PRAGMA(clang attribute push(                              \
        __attribute__((target(SWH_TIER_TARGET))), apply_to = function))
#define SWH_TIER_END _Pragma("clang attribute pop")
#else
#define SWH_TIER_BEGIN \
    _Pragma("GCC push_options") SWH_TIER_PRAGMA(GCC target(SWH_TIER_TARGET))
#define SWH_TIER_END _Pragma("GCC pop_options")
#endif
