#pragma once

// The SIMD kernels' entry points, compiled once per ISA tier
// (kernels_v2.cpp, kernels_v3.cpp, kernels_v4.cpp; DESIGN.md "SIMD
// backends"). Each entry takes the width, then the arguments of the
// kernel template it runs, and throws ContractError for a width its
// tier does not have.

#include <cstddef>
#include <cstdint>
#include <span>

#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "simd/arch.hpp"

namespace swh::align {

struct KernelTable {
    StripedResult (*striped_u8)(simd::IsaLevel, const Profile8&,
                                std::span<const Code>, GapPenalty,
                                ScanScratch&, bool trusted);
    StripedResult (*striped_i16)(simd::IsaLevel, const Profile16&,
                                 std::span<const Code>, GapPenalty,
                                 ScanScratch&, bool trusted);
    std::uint64_t (*interseq_u8_tiled)(simd::IsaLevel, const InterseqProfile&,
                                       const Code*, std::size_t columns,
                                       GapPenalty, ScanScratch&,
                                       InterseqColumnState&,
                                       std::uint8_t* lane_best);
    I16Pass (*interseq_i16_tiled)(simd::IsaLevel, const InterseqProfile&,
                                  const Code*, std::size_t columns,
                                  GapPenalty, ScanScratch&,
                                  InterseqColumnState&,
                                  const std::int16_t* seed,
                                  std::int16_t* lane_best);
    std::uint64_t (*ungapped_interseq_u8)(simd::IsaLevel,
                                          const InterseqProfile&, const Code*,
                                          std::size_t columns, GapPenalty,
                                          ScanScratch&,
                                          std::uint8_t* lane_best,
                                          std::size_t row_begin,
                                          std::size_t row_end);
    void (*composition_cap)(simd::IsaLevel, const InterseqProfile&,
                            const Code*, std::size_t columns,
                            Score* lane_cap);
};

namespace v2 {
extern const KernelTable kKernels;
}
namespace v3 {
extern const KernelTable kKernels;
}
namespace v4 {
extern const KernelTable kKernels;
}

/// The kernels of `tier`. Every build has all three; a tier above
/// simd::host_tier() must not run.
inline const KernelTable& kernels(simd::Tier tier) {
    switch (tier) {
        case simd::Tier::v2:
            return v2::kKernels;
        case simd::Tier::v3:
            return v3::kKernels;
        case simd::Tier::v4:
            break;
    }
    return v4::kKernels;
}

/// The kernels of simd::active_tier(): what every sw_* entry point runs.
inline const KernelTable& kernels() { return kernels(simd::active_tier()); }

}  // namespace swh::align
