#include "simd/arch.hpp"

#include <atomic>

#include "util/error.hpp"

namespace swh::simd {

namespace {

// The features the v3 and v4 target regions (simd/tier.hpp) add to the
// build's x86-64-v2 floor.
Tier detect() {
    __builtin_cpu_init();
    const bool v3 = __builtin_cpu_supports("avx") &&
                    __builtin_cpu_supports("avx2");
    const bool v4 = v3 && __builtin_cpu_supports("avx512f") &&
                    __builtin_cpu_supports("avx512bw") &&
                    __builtin_cpu_supports("avx512vl") &&
                    __builtin_cpu_supports("avx512vbmi");
    return v4 ? Tier::v4 : v3 ? Tier::v3 : Tier::v2;
}

// A function-local static, so a static initialiser elsewhere that asks
// for the tier still sees the detected one.
std::atomic<Tier>& active() {
    static std::atomic<Tier> tier{host_tier()};
    return tier;
}

}  // namespace

Tier host_tier() {
    static const Tier tier = detect();
    return tier;
}

Tier active_tier() { return active().load(); }

IsaLevel widest(Tier tier) {
    switch (tier) {
        case Tier::v2:
            return IsaLevel::SSE2;
        case Tier::v3:
            return IsaLevel::AVX2;
        case Tier::v4:
            return IsaLevel::AVX512;
    }
    return IsaLevel::SSE2;
}

IsaLevel best_supported() { return widest(active_tier()); }

bool is_supported(IsaLevel level) { return level <= best_supported(); }

const char* to_string(IsaLevel level) {
    switch (level) {
        case IsaLevel::Scalar:
            return "scalar";
        case IsaLevel::SSE2:
            return "sse2";
        case IsaLevel::AVX2:
            return "avx2";
        case IsaLevel::AVX512:
            return "avx512";
    }
    return "?";
}

const char* to_string(Tier tier) {
    switch (tier) {
        case Tier::v2:
            return "x86-64-v2";
        case Tier::v3:
            return "x86-64-v3";
        case Tier::v4:
            return "x86-64-v4";
    }
    return "?";
}

ScopedTier::ScopedTier(Tier tier) : previous_(active_tier()) {
    // ContractError is header-only; swh_simd sits below swh_util.
    if (tier > host_tier()) {
        throw ContractError(std::string("tier ") + to_string(tier) +
                            " is above this CPU's " +
                            to_string(host_tier()));
    }
    active().store(tier);
}

ScopedTier::~ScopedTier() {
    active().store(previous_);
}

}  // namespace swh::simd
