#pragma once

// Per-tier checks of the vector backends against the scalar emulation
// (simd_ops_tier.hpp, compiled once per tier by simd_ops_v2.cpp,
// simd_ops_v3.cpp and simd_ops_v4.cpp), run by simd_test.cpp.

#include <cstdint>

#include "simd/arch.hpp"

namespace swh::simd {

/// Which vector type of a width to check: U8, S8 (with its lookup32
/// gather and i16 widens) or I16.
enum class VecKind { U8, S8, I16 };

/// Checks the tier's `kind` vector of width `level` on random inputs
/// drawn from `seed`, every operation the kernels use.
using CheckOps = void (*)(IsaLevel level, VecKind kind, std::uint64_t seed);

namespace v2 {
void check_ops(IsaLevel level, VecKind kind, std::uint64_t seed);
}
namespace v3 {
void check_ops(IsaLevel level, VecKind kind, std::uint64_t seed);
}
namespace v4 {
void check_ops(IsaLevel level, VecKind kind, std::uint64_t seed);
}

}  // namespace swh::simd
