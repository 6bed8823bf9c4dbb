#pragma once

// The vector backends of the ISA tier SWH_TIER against the scalar
// emulation (simd_ops.hpp). A tier header (simd/tier.hpp).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>

#include "simd/simd.hpp"
#include "simd_ops.hpp"
#include "util/rng.hpp"

SWH_TIER_BEGIN
namespace swh::simd::SWH_TIER_NS {
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

}  // namespace

void check_ops(IsaLevel level, VecKind kind, std::uint64_t seed) {
    dispatch(level, [&]<class T>(T) {
        constexpr int N = T::U8::kLanes;
        switch (kind) {
            case VecKind::U8:
                check_backend_agreement<typename T::U8, U8xN<N>>(seed);
                break;
            case VecKind::S8:
                check_s8_agreement<typename T::S8, typename T::U8,
                                   typename T::I16>(seed);
                break;
            case VecKind::I16:
                check_backend_agreement<typename T::I16, I16xN<N / 2>>(seed);
                break;
        }
    });
}

}  // namespace swh::simd::SWH_TIER_NS
SWH_TIER_END
