#pragma once

/// The vector backends of the ISA tier SWH_TIER and the width -> vector
/// type table every kernel entry point goes through. A tier header
/// (simd/tier.hpp): include it from a tier translation unit only.

#include "simd/arch.hpp"        // IWYU pragma: export
#include "simd/vec_scalar.hpp"  // IWYU pragma: export
#include "simd/vec_sse2.hpp"    // IWYU pragma: export
#if SWH_TIER >= 3
#include "simd/vec_avx2.hpp"  // IWYU pragma: export
#endif
#if SWH_TIER >= 4
#include "simd/vec_avx512.hpp"  // IWYU pragma: export
#endif

#include "util/error.hpp"

SWH_TIER_BEGIN
namespace swh::simd::SWH_TIER_NS {

/// The vector types of one width: `U8` (unsigned 8-bit lanes), `S8`
/// (signed 8-bit lanes, as many) and `I16` (signed 16-bit lanes, half
/// as many per register).
template <class U8V, class S8V, class I16V>
struct Backend {
    using U8 = U8V;
    using S8 = S8V;
    using I16 = I16V;
};

/// Calls `f(Backend<...>{})` with this tier's vector types of width
/// `level` and returns its result, typically with a generic lambda
/// `[&]<class T>(T) { ... typename T::U8 ... }`. Throws ContractError
/// for a width the tier does not have.
template <class F>
auto dispatch(IsaLevel level, F&& f) {
    switch (level) {
        case IsaLevel::Scalar:
            return f(Backend<U8x16s, S8x16s, I16x8s>{});
        case IsaLevel::SSE2:
            return f(Backend<U8x16, S8x16, I16x8>{});
#if SWH_TIER >= 3
        case IsaLevel::AVX2:
            return f(Backend<U8x32, S8x32, I16x16>{});
#endif
#if SWH_TIER >= 4
        case IsaLevel::AVX512:
            return f(Backend<U8x64, S8x64, I16x32>{});
#endif
        default:
            break;
    }
    SWH_REQUIRE(false, "ISA level not in this tier");
}

}  // namespace swh::simd::SWH_TIER_NS
SWH_TIER_END
