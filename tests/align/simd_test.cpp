#include "simd/simd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "align/striped.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace swh::simd {
namespace {

// Compares an intrinsic-backed vector type V against the scalar
// emulation E (same lane count) on random inputs for every operation the
// kernels use.
template <class V, class E>
void check_backend_agreement(std::uint64_t seed) {
    static_assert(V::kLanes == E::kLanes);
    using Lane = typename V::lane_type;
    Rng rng(seed);
    for (int iter = 0; iter < 200; ++iter) {
        std::array<Lane, V::kLanes> a{}, b{};
        for (int i = 0; i < V::kLanes; ++i) {
            a[i] = static_cast<Lane>(rng.next());
            b[i] = static_cast<Lane>(rng.next());
        }
        const V va = V::load(a.data()), vb = V::load(b.data());
        const E ea = E::load(a.data()), eb = E::load(b.data());

        auto expect_same = [&](V got, E want, const char* op) {
            std::array<Lane, V::kLanes> g{}, w{};
            got.store(g.data());
            want.store(w.data());
            EXPECT_EQ(g, w) << op << " iter " << iter;
        };
        expect_same(adds(va, vb), adds(ea, eb), "adds");
        expect_same(subs(va, vb), subs(ea, eb), "subs");
        expect_same(vmax(va, vb), vmax(ea, eb), "vmax");
        if constexpr (std::is_same_v<Lane, std::int16_t>) {
            expect_same(vmin(va, vb), vmin(ea, eb), "vmin");
        }
        expect_same(va.shl_lane(), ea.shl_lane(), "shl_lane");
        EXPECT_EQ(any_gt(va, vb), any_gt(ea, eb)) << "any_gt iter " << iter;
        EXPECT_EQ(va.hmax(), ea.hmax()) << "hmax iter " << iter;
    }
}

// The same for a signed 8-bit type S (U its index vector, I the i16
// vector its widens yield), against the scalar S8xN, including the
// int8-table gather and the sign-extending widens.
template <class S, class U, class I>
void check_s8_agreement(std::uint64_t seed) {
    constexpr int N = S::kLanes;
    using E = S8xN<N>;
    Rng rng(seed);
    for (int iter = 0; iter < 200; ++iter) {
        std::array<std::int8_t, N> a{}, b{};
        std::array<std::uint8_t, N> idx{};
        std::array<std::int8_t, 32> table{};
        for (int i = 0; i < N; ++i) {
            a[i] = static_cast<std::int8_t>(rng.next());
            b[i] = static_cast<std::int8_t>(rng.next());
            idx[i] = static_cast<std::uint8_t>(rng.below(32));
        }
        for (std::int8_t& t : table) t = static_cast<std::int8_t>(rng.next());
        a[0] = INT8_MIN;  // the floor value of the kernels
        b[1] = INT8_MAX;
        const S va = S::load(a.data()), vb = S::load(b.data());
        const E ea = E::load(a.data()), eb = E::load(b.data());

        auto expect_same = [&](S got, E want, const char* op) {
            std::array<std::int8_t, N> g{}, w{};
            got.store(g.data());
            want.store(w.data());
            EXPECT_EQ(g, w) << op << " iter " << iter;
        };
        expect_same(adds(va, vb), adds(ea, eb), "adds");
        expect_same(subs(va, vb), subs(ea, eb), "subs");
        expect_same(vmax(va, vb), vmax(ea, eb), "vmax");
        expect_same(lookup32(table.data(), U::load(idx.data())),
                    lookup32(table.data(), U8xN<N>::load(idx.data())),
                    "lookup32");
        std::array<std::int16_t, N / 2> g{}, w{};
        widen_lo(va).store(g.data());
        widen_lo(ea).store(w.data());
        EXPECT_EQ(g, w) << "widen_lo iter " << iter;
        widen_hi(va).store(g.data());
        widen_hi(ea).store(w.data());
        EXPECT_EQ(g, w) << "widen_hi iter " << iter;
        static_assert(std::is_same_v<decltype(widen_lo(va)), I>);
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

#if defined(__SSE2__)
TEST(SimdBackends, Sse2S8MatchesScalar) {
    if (!is_supported(IsaLevel::SSE2)) GTEST_SKIP();
    check_s8_agreement<S8x16, U8x16, I16x8>(8);
}

TEST(SimdBackends, Sse2U8MatchesScalar) {
    if (!is_supported(IsaLevel::SSE2)) GTEST_SKIP();
    check_backend_agreement<U8x16, U8xN<16>>(1);
}

TEST(SimdBackends, Sse2I16MatchesScalar) {
    if (!is_supported(IsaLevel::SSE2)) GTEST_SKIP();
    check_backend_agreement<I16x8, I16xN<8>>(2);
}
#endif

#if defined(__AVX2__)
TEST(SimdBackends, Avx2U8MatchesScalar) {
    if (!is_supported(IsaLevel::AVX2)) GTEST_SKIP();
    check_backend_agreement<U8x32, U8xN<32>>(3);
}

TEST(SimdBackends, Avx2S8MatchesScalar) {
    if (!is_supported(IsaLevel::AVX2)) GTEST_SKIP();
    check_s8_agreement<S8x32, U8x32, I16x16>(9);
}

TEST(SimdBackends, Avx2I16MatchesScalar) {
    if (!is_supported(IsaLevel::AVX2)) GTEST_SKIP();
    check_backend_agreement<I16x16, I16xN<16>>(4);
}
#endif

#if defined(__AVX512BW__)
TEST(SimdBackends, Avx512U8MatchesScalar) {
    if (!is_supported(IsaLevel::AVX512)) GTEST_SKIP();
    check_backend_agreement<U8x64, U8xN<64>>(5);
}

TEST(SimdBackends, Avx512S8MatchesScalar) {
    if (!is_supported(IsaLevel::AVX512)) GTEST_SKIP();
    check_s8_agreement<S8x64, U8x64, I16x32>(10);
}

TEST(SimdBackends, Avx512I16MatchesScalar) {
    if (!is_supported(IsaLevel::AVX512)) GTEST_SKIP();
    check_backend_agreement<I16x32, I16xN<32>>(6);
}
#endif

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

TEST(SimdDispatch, EveryLevelMapsToItsLanesOrRejects) {
    // A level compiled into this build (same macros as dispatch) maps
    // to its vector types; any other level throws. Builds without
    // -march=native take the throw for AVX2 and AVX-512.
    struct Case {
        IsaLevel level;
        bool compiled;
        int u8_lanes;
        int i16_lanes;
    };
    const Case cases[] = {
        {IsaLevel::Scalar, true, 16, 8},
#if defined(__SSE2__)
        {IsaLevel::SSE2, true, 16, 8},
#else
        {IsaLevel::SSE2, false, 16, 8},
#endif
#if defined(__AVX2__)
        {IsaLevel::AVX2, true, 32, 16},
#else
        {IsaLevel::AVX2, false, 32, 16},
#endif
#if defined(__AVX512BW__)
        {IsaLevel::AVX512, true, 64, 32},
#else
        {IsaLevel::AVX512, false, 64, 32},
#endif
    };
    for (const Case& c : cases) {
        if (c.compiled) {
            EXPECT_EQ(align::lanes_u8(c.level), c.u8_lanes)
                << to_string(c.level);
            EXPECT_EQ(align::lanes_i16(c.level), c.i16_lanes)
                << to_string(c.level);
        } else {
            EXPECT_THROW(align::lanes_u8(c.level), ContractError)
                << to_string(c.level);
            EXPECT_THROW(align::lanes_i16(c.level), ContractError)
                << to_string(c.level);
        }
    }
}

}  // namespace
}  // namespace swh::simd
