#pragma once

/// Umbrella header for the SIMD abstraction used by the striped and
/// inter-sequence kernels.

#include "simd/arch.hpp"      // IWYU pragma: export
#include "simd/vec_scalar.hpp"  // IWYU pragma: export
#if defined(__SSE2__)
#include "simd/vec_sse2.hpp"  // IWYU pragma: export
#endif
#if defined(__AVX2__)
#include "simd/vec_avx2.hpp"  // IWYU pragma: export
#endif
#if defined(__AVX512BW__)
#include "simd/vec_avx512.hpp"  // IWYU pragma: export
#endif

#include "util/error.hpp"

namespace swh::simd {

/// The vector types of one IsaLevel: `U8` (unsigned 8-bit lanes),
/// `S8` (signed 8-bit lanes, as many) and `I16` (signed 16-bit lanes,
/// half as many per register).
template <class U8V, class S8V, class I16V>
struct Backend {
    using U8 = U8V;
    using S8 = S8V;
    using I16 = I16V;
};

/// Calls `f(Backend<...>{})` with the vector types implementing `level`
/// and returns its result — the one IsaLevel -> vector-type table every
/// kernel entry point goes through, typically with a generic lambda
/// `[&]<class T>(T) { ... typename T::U8 ... }`. Throws ContractError
/// for a level not compiled into this build.
template <class F>
auto dispatch(IsaLevel level, F&& f) {
    switch (level) {
        case IsaLevel::Scalar:
            return f(Backend<U8x16s, S8x16s, I16x8s>{});
#if defined(__SSE2__)
        case IsaLevel::SSE2:
            return f(Backend<U8x16, S8x16, I16x8>{});
#endif
#if defined(__AVX2__)
        case IsaLevel::AVX2:
            return f(Backend<U8x32, S8x32, I16x16>{});
#endif
#if defined(__AVX512BW__)
        case IsaLevel::AVX512:
            return f(Backend<U8x64, S8x64, I16x32>{});
#endif
        default:
            break;
    }
    SWH_REQUIRE(false, "ISA level not compiled in");
}

}  // namespace swh::simd
