#pragma once

// Templated bodies of the striped Smith-Waterman kernels (Farrar 2007,
// with the exactness fix of also refreshing E during the lazy-F loop).
// Instantiated per ISA tier and width in kernels_tier.hpp; a tier
// header (simd/tier.hpp).
//
// The kernels draw their H/E column buffers from a caller-owned
// ScanScratch, so a database scan reuses one warm allocation instead of
// heap-allocating three vectors per subject. `kChecked` controls the
// per-residue alphabet check: it stays on for untrusted input (seed
// behaviour) and is compiled out for residues validated once at pack
// time (db::PackedDatabase).

#include <algorithm>
#include <span>

#include "align/striped.hpp"
#include "simd/simd.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"

SWH_TIER_BEGIN
namespace swh::align::SWH_TIER_NS {

/// 8-bit unsigned kernel. V must model the vector interface documented
/// in simd/vec_scalar.hpp with lane_type uint8_t.
template <class V, bool kChecked = true>
SWH_HOT_PATH StripedResult striped_u8(const Profile8& p,
                                      std::span<const Code> db, GapPenalty gap,
                                      ScanScratch& scratch) {
    SWH_REQUIRE(p.lanes == V::kLanes, "profile built for a different width");
    StripedResult r;
    if (p.query_len == 0 || db.empty()) return r;

    const std::size_t seg = p.seg_len;
    const auto open_ext =
        static_cast<std::uint8_t>(std::min<Score>(gap.open + gap.extend, 255));
    const auto ext =
        static_cast<std::uint8_t>(std::min<Score>(gap.extend, 255));
    const V vGapOE = V::splat(open_ext);
    const V vGapE = V::splat(ext);
    const V vBias = V::splat(static_cast<std::uint8_t>(p.bias));

    const ScanScratch::KernelBuffers bufs =
        scratch.kernel_buffers(seg * sizeof(V));
    // The three buffers are disjoint slices of the scratch; __restrict
    // lets the inner loop keep H/E/F in registers across the stores.
    V* __restrict h_load = static_cast<V*>(bufs.h_load);
    V* __restrict h_store = static_cast<V*>(bufs.h_store);
    V* __restrict e = static_cast<V*>(bufs.e);
    // h_store is fully written each column before it is read.
    std::fill_n(h_load, seg, V::zero());
    std::fill_n(e, seg, V::zero());
    V vMax = V::zero();

    for (const Code c : db) {
        if constexpr (kChecked) {
            SWH_REQUIRE(c < p.symbols, "db residue outside profile alphabet");
        }
        const std::uint8_t* __restrict prof = p.row(c);
        V vF = V::zero();
        // H(i-1) of the last segment, rotated: lane l receives the value
        // of lane l-1, and a 0 boundary enters lane 0.
        V vH = h_load[seg - 1].shl_lane();
        for (std::size_t i = 0; i < seg; ++i) {
            vH = subs(adds(vH, V::load(prof + i * V::kLanes)), vBias);
            vH = vmax(vH, e[i]);
            vH = vmax(vH, vF);
            vMax = vmax(vMax, vH);
            h_store[i] = vH;
            const V vHgap = subs(vH, vGapOE);
            e[i] = vmax(subs(e[i], vGapE), vHgap);
            vF = vmax(subs(vF, vGapE), vHgap);
            vH = h_load[i];
        }
        // Lazy-F: propagate vertical gaps that cross segment boundaries.
        // The exit test runs once per 4-step chunk rather than per step:
        // updates past Farrar's exit point only vmax already-dominated F
        // values (no-ops), and halving the any_gt/branch traffic is a
        // measurable win on scan workloads.
        vF = vF.shl_lane();
        std::size_t j = 0;
        while (any_gt(vF, subs(h_store[j], vGapOE))) {
            const std::size_t end = std::min(j + 4, seg);
            for (; j < end; ++j) {
                h_store[j] = vmax(h_store[j], vF);
                // Keep E exact w.r.t. the corrected H (Farrar's original
                // kernel skips this; it can underestimate E after an F
                // fix).
                e[j] = vmax(e[j], subs(h_store[j], vGapOE));
                vF = subs(vF, vGapE);
            }
            if (j >= seg) {
                j = 0;
                vF = vF.shl_lane();
            }
        }
        V* __restrict tmp = h_load;
        h_load = h_store;
        h_store = tmp;
    }

    const std::uint8_t m = vMax.hmax();
    r.score = m;
    // Saturation is possible once H + (matrix value + bias) can clip 255.
    r.overflow = static_cast<Score>(m) + p.bias >= 255;
    return r;
}

/// 16-bit signed kernel with an explicit zero clamp (signed lanes do not
/// get it for free from saturation like the unsigned kernel does). It
/// only settles striped u8 overflows (the packed scan path and
/// StripedAligner::score), which the cohort scan never produces.
template <class V, bool kChecked = true>
SWH_HOT_PATH StripedResult striped_i16(const Profile16& p,
                                       std::span<const Code> db,
                                       GapPenalty gap, Score matrix_max,
                                       ScanScratch& scratch) {
    SWH_REQUIRE(p.lanes == V::kLanes, "profile built for a different width");
    StripedResult r;
    if (p.query_len == 0 || db.empty()) return r;

    const std::size_t seg = p.seg_len;
    const V vGapOE = V::splat(static_cast<std::int16_t>(
        std::min<Score>(gap.open + gap.extend, 32767)));
    const V vGapE =
        V::splat(static_cast<std::int16_t>(std::min<Score>(gap.extend, 32767)));
    const V vZero = V::zero();

    const ScanScratch::KernelBuffers bufs =
        scratch.kernel_buffers(seg * sizeof(V));
    V* __restrict h_load = static_cast<V*>(bufs.h_load);
    V* __restrict h_store = static_cast<V*>(bufs.h_store);
    V* __restrict e = static_cast<V*>(bufs.e);
    std::fill_n(h_load, seg, V::zero());
    std::fill_n(e, seg, V::zero());
    V vMax = V::zero();

    for (const Code c : db) {
        if constexpr (kChecked) {
            SWH_REQUIRE(c < p.symbols, "db residue outside profile alphabet");
        }
        const std::int16_t* __restrict prof = p.row(c);
        V vF = V::zero();
        V vH = h_load[seg - 1].shl_lane();
        for (std::size_t i = 0; i < seg; ++i) {
            vH = adds(vH, V::load(prof + i * V::kLanes));
            vH = vmax(vH, e[i]);
            vH = vmax(vH, vF);
            vH = vmax(vH, vZero);  // local-alignment clamp
            vMax = vmax(vMax, vH);
            h_store[i] = vH;
            const V vHgap = subs(vH, vGapOE);
            e[i] = vmax(subs(e[i], vGapE), vHgap);
            vF = vmax(subs(vF, vGapE), vHgap);
            vH = h_load[i];
        }
        vF = vF.shl_lane();
        std::size_t j = 0;
        // Unlike the unsigned kernel, signed lanes do not bottom out at 0,
        // so compare against max(H - gapOE, 0): a non-positive F can never
        // raise a (non-negative) local-alignment H and must not keep the
        // loop alive. Chunked exit test as in the unsigned kernel.
        while (any_gt(vF, vmax(subs(h_store[j], vGapOE), vZero))) {
            const std::size_t end = std::min(j + 4, seg);
            for (; j < end; ++j) {
                h_store[j] = vmax(h_store[j], vF);
                e[j] = vmax(e[j], subs(h_store[j], vGapOE));
                vF = subs(vF, vGapE);
            }
            if (j >= seg) {
                j = 0;
                vF = vF.shl_lane();
            }
        }
        V* __restrict tmp = h_load;
        h_load = h_store;
        h_store = tmp;
    }

    const std::int16_t m = vMax.hmax();
    r.score = m;
    r.overflow = static_cast<Score>(m) + matrix_max >= 32767;
    return r;
}

}  // namespace swh::align::SWH_TIER_NS
SWH_TIER_END
