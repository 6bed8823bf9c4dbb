#pragma once

// The (ISA tier, width) pairs the kernel suites run against the scalar
// oracle: every tier this host has, at each of its SIMD widths, and the
// scalar emulation once, at the host's tier.
//
//   for (const test::TierWidth& tw : test::tier_widths()) {
//       const test::PinnedTier pin(tw);
//       const simd::IsaLevel isa = tw.width;
//       ...
//   }

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simd/arch.hpp"

namespace swh::test {

struct TierWidth {
    simd::Tier tier;
    simd::IsaLevel width;

    std::string label() const {
        return std::string(simd::to_string(tier)) + "/" +
               simd::to_string(width);
    }
};

inline std::vector<TierWidth> tier_widths() {
    const simd::Tier host = simd::host_tier();
    std::vector<TierWidth> out = {{host, simd::IsaLevel::Scalar}};
    for (const simd::Tier tier :
         {simd::Tier::v2, simd::Tier::v3, simd::Tier::v4}) {
        if (tier > host) break;
        for (const simd::IsaLevel width :
             {simd::IsaLevel::SSE2, simd::IsaLevel::AVX2,
              simd::IsaLevel::AVX512}) {
            if (width <= simd::widest(tier)) out.push_back({tier, width});
        }
    }
    return out;
}

/// The pairs of one width.
inline std::vector<TierWidth> tier_widths(simd::IsaLevel width) {
    std::vector<TierWidth> out = tier_widths();
    std::erase_if(out, [&](const TierWidth& tw) { return tw.width != width; });
    return out;
}

/// The host tier's widths, narrowest first: the parameters of the
/// suites that name their cases by width and run each width's pairs
/// (tier_widths(width)) in the body.
inline std::vector<simd::IsaLevel> host_widths() {
    std::vector<simd::IsaLevel> out;
    for (const simd::IsaLevel width :
         {simd::IsaLevel::Scalar, simd::IsaLevel::SSE2, simd::IsaLevel::AVX2,
          simd::IsaLevel::AVX512}) {
        if (width <= simd::widest(simd::host_tier())) out.push_back(width);
    }
    return out;
}

/// Runs the kernels at the pair's tier, and names the pair in every
/// failure, for as long as it lives.
class PinnedTier {
public:
    explicit PinnedTier(const TierWidth& tw)
        : pin_(tw.tier), trace_(__FILE__, __LINE__, tw.label()) {}

private:
    simd::ScopedTier pin_;
    ::testing::ScopedTrace trace_;
};

}  // namespace swh::test
