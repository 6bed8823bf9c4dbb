#pragma once

namespace swh::simd {

/// Vector widths of the kernels. `SSE2` is 128 bits (16 u8 lanes),
/// `AVX2` 256 bits (32), `AVX512` 512 bits (64); `Scalar` is a
/// lane-faithful 16-lane emulation of the vector code (same algorithm,
/// plain loops) used as a test reference. A width names no instruction
/// set: the active Tier supplies the instructions at every width it has.
enum class IsaLevel { Scalar, SSE2, AVX2, AVX512 };

/// ISA tiers the kernels are compiled for, one copy each (DESIGN.md
/// "SIMD backends"): `v2` (SSSE3, SSE4.1; widths up to SSE2), `v3`
/// (+ AVX2; up to AVX2) and `v4` (+ AVX-512 BW, VL and VBMI; up to
/// AVX512). The build's own floor is x86-64-v2.
enum class Tier { v2, v3, v4 };

/// The best tier this CPU runs, detected once.
Tier host_tier();

/// The tier the kernels run: host_tier(), or the one a ScopedTier pins.
Tier active_tier();

/// The widest width of `tier`; every narrower width is in it too.
IsaLevel widest(Tier tier);

/// Widest width of the active tier.
IsaLevel best_supported();

/// True if the active tier has `level`.
bool is_supported(IsaLevel level);

const char* to_string(IsaLevel level);

/// "x86-64-v2", "x86-64-v3" or "x86-64-v4".
const char* to_string(Tier tier);

/// Runs every kernel at `tier` (at most host_tier(), else ContractError)
/// until destroyed, so tests reach the lower tiers' kernels through the
/// same entry points as the host's. Not for concurrent use: create it
/// before starting the threads that scan and destroy it after joining
/// them.
class ScopedTier {
public:
    explicit ScopedTier(Tier tier);
    ~ScopedTier();
    ScopedTier(const ScopedTier&) = delete;
    ScopedTier& operator=(const ScopedTier&) = delete;

private:
    Tier previous_;
};

}  // namespace swh::simd
