#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "align/kernels.hpp"
#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "simd/arch.hpp"
#include "simd/vec_scalar.hpp"
#include "simd_ops.hpp"
#include "tier_widths.hpp"
#include "util/error.hpp"

namespace swh::simd {
namespace {

CheckOps check_ops(Tier tier) {
    switch (tier) {
        case Tier::v2:
            return v2::check_ops;
        case Tier::v3:
            return v3::check_ops;
        case Tier::v4:
            break;
    }
    return v4::check_ops;
}

// Runs the `kind` vector of width `level` at every tier the host has.
void check_width(IsaLevel level, VecKind kind, std::uint64_t seed) {
    const auto pairs = test::tier_widths(level);
    if (pairs.empty()) GTEST_SKIP() << "no tier of this host has the width";
    for (const test::TierWidth& tw : pairs) {
        SCOPED_TRACE(tw.label());
        check_ops(tw.tier)(tw.width, kind, seed);
    }
}

TEST(SimdScalar, SignedSaturatingOpsClampAtTheFloor) {
    // The offset-signed kernels hold score v as v - 128: adds of a raw
    // score clamps at the floor (score 0) and at 127 (score 255).
    S8xN<3> h, s;
    h.lane = {-120, 100, -128};
    s.lane = {-20, 40, 5};
    EXPECT_EQ(adds(h, s).lane, (std::array<std::int8_t, 3>{-128, 127, -123}));
    EXPECT_EQ(subs(h, s).lane, (std::array<std::int8_t, 3>{-100, 60, -128}));
    EXPECT_EQ(vmax(h, s).lane, (std::array<std::int8_t, 3>{-20, 100, 5}));
}

TEST(SimdBackends, Sse2S8MatchesScalar) {
    check_width(IsaLevel::SSE2, VecKind::S8, 8);
}

TEST(SimdBackends, Sse2U8MatchesScalar) {
    check_width(IsaLevel::SSE2, VecKind::U8, 1);
}

TEST(SimdBackends, Sse2I16MatchesScalar) {
    check_width(IsaLevel::SSE2, VecKind::I16, 2);
}

TEST(SimdBackends, Avx2U8MatchesScalar) {
    check_width(IsaLevel::AVX2, VecKind::U8, 3);
}

TEST(SimdBackends, Avx2S8MatchesScalar) {
    check_width(IsaLevel::AVX2, VecKind::S8, 9);
}

TEST(SimdBackends, Avx2I16MatchesScalar) {
    check_width(IsaLevel::AVX2, VecKind::I16, 4);
}

TEST(SimdBackends, Avx512U8MatchesScalar) {
    check_width(IsaLevel::AVX512, VecKind::U8, 5);
}

TEST(SimdBackends, Avx512S8MatchesScalar) {
    check_width(IsaLevel::AVX512, VecKind::S8, 10);
}

TEST(SimdBackends, Avx512I16MatchesScalar) {
    check_width(IsaLevel::AVX512, VecKind::I16, 6);
}

TEST(SimdScalar, ShlLaneInsertsZero) {
    U8xN<4> v;
    v.lane = {1, 2, 3, 4};
    const auto s = v.shl_lane();
    EXPECT_EQ(s.lane, (std::array<std::uint8_t, 4>{0, 1, 2, 3}));
}

TEST(SimdScalar, SaturatingOps) {
    U8xN<2> a, b;
    a.lane = {250, 3};
    b.lane = {10, 5};
    EXPECT_EQ(adds(a, b).lane, (std::array<std::uint8_t, 2>{255, 8}));
    EXPECT_EQ(subs(a, b).lane, (std::array<std::uint8_t, 2>{240, 0}));

    I16xN<2> c, d;
    c.lane = {32000, -32000};
    d.lane = {1000, 1000};
    EXPECT_EQ(adds(c, d).lane, (std::array<std::int16_t, 2>{32767, -31000}));
    EXPECT_EQ(subs(c, d).lane, (std::array<std::int16_t, 2>{31000, -32768}));
}

TEST(SimdScalar, AnyGtEdgeCases) {
    U8xN<2> a, b;
    a.lane = {5, 5};
    b.lane = {5, 5};
    EXPECT_FALSE(any_gt(a, b));
    a.lane = {5, 6};
    EXPECT_TRUE(any_gt(a, b));

    I16xN<2> c, d;
    c.lane = {-1, 0};
    d.lane = {0, 0};
    EXPECT_FALSE(any_gt(c, d));
    c.lane = {1, -5};
    EXPECT_TRUE(any_gt(c, d));
}

TEST(SimdArch, BestSupportedIsSupported) {
    EXPECT_TRUE(is_supported(best_supported()));
    EXPECT_TRUE(is_supported(IsaLevel::Scalar));
}

TEST(SimdArch, ToStringNames) {
    EXPECT_STREQ(to_string(IsaLevel::Scalar), "scalar");
    EXPECT_STREQ(to_string(IsaLevel::SSE2), "sse2");
    EXPECT_STREQ(to_string(IsaLevel::AVX2), "avx2");
    EXPECT_STREQ(to_string(IsaLevel::AVX512), "avx512");
}

TEST(SimdArch, TiersNestTheirWidths) {
    EXPECT_EQ(widest(Tier::v2), IsaLevel::SSE2);
    EXPECT_EQ(widest(Tier::v3), IsaLevel::AVX2);
    EXPECT_EQ(widest(Tier::v4), IsaLevel::AVX512);
    EXPECT_EQ(active_tier(), host_tier());
    EXPECT_EQ(best_supported(), widest(host_tier()));
    EXPECT_STREQ(to_string(Tier::v3), "x86-64-v3");
}

TEST(SimdArch, ScopedTierPinsAndRestores) {
    {
        const ScopedTier pin(Tier::v2);
        EXPECT_EQ(active_tier(), Tier::v2);
        EXPECT_EQ(best_supported(), IsaLevel::SSE2);
        EXPECT_FALSE(is_supported(IsaLevel::AVX2));
        EXPECT_TRUE(is_supported(IsaLevel::Scalar));
    }
    EXPECT_EQ(active_tier(), host_tier());
    if (host_tier() < Tier::v4) {
        EXPECT_THROW(ScopedTier{Tier::v4}, ContractError);
    }
}

TEST(SimdDispatch, EveryLevelMapsToItsLanesOrRejects) {
    // Lane counts are a property of the width alone. Every tier's
    // kernels run each width the tier has and throw for any other.
    const struct {
        IsaLevel level;
        int u8_lanes;
        int i16_lanes;
    } cases[] = {{IsaLevel::Scalar, 16, 8},
                 {IsaLevel::SSE2, 16, 8},
                 {IsaLevel::AVX2, 32, 16},
                 {IsaLevel::AVX512, 64, 32}};
    const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    const std::vector<align::Code> q = {1, 2, 3}, d = {3, 2, 1};
    for (const auto& c : cases) {
        EXPECT_EQ(align::lanes_u8(c.level), c.u8_lanes) << to_string(c.level);
        EXPECT_EQ(align::lanes_i16(c.level), c.i16_lanes)
            << to_string(c.level);
        const align::Profile8 p = align::build_profile8(q, m, c.u8_lanes);
        for (const Tier tier : {Tier::v2, Tier::v3, Tier::v4}) {
            if (tier > host_tier()) break;
            align::ScanScratch scratch;
            const auto run = [&] {
                return align::kernels(tier).striped_u8(c.level, p, d, {10, 2},
                                                       scratch, false);
            };
            if (c.level <= widest(tier)) {
                EXPECT_EQ(run().score, align::sw_score_affine(q, d, m, {10, 2}))
                    << to_string(tier) << " " << to_string(c.level);
            } else {
                EXPECT_THROW(run(), ContractError)
                    << to_string(tier) << " " << to_string(c.level);
            }
        }
    }
}

}  // namespace
}  // namespace swh::simd
