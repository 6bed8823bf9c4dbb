#pragma once

// Every kernel entry point of the ISA tier SWH_TIER and its KernelTable
// (align/kernels.hpp). A tier header (simd/tier.hpp): kernels_v2.cpp,
// kernels_v3.cpp and kernels_v4.cpp each define SWH_TIER and include it.

#include <span>

#include "align/interseq_kernels.hpp"
#include "align/kernels.hpp"
#include "align/striped_kernels.hpp"
#include "align/ungapped_kernels.hpp"
#include "simd/simd.hpp"

SWH_TIER_BEGIN
namespace swh::align::SWH_TIER_NS {

using simd::SWH_TIER_NS::dispatch;

// Constant-initialised: the lambdas convert to function pointers at
// compile time. The generic entries' parameter packs are deduced from
// the table's function-pointer types, references included.
extern constinit const KernelTable kKernels{
    .striped_u8 = [](simd::IsaLevel isa, const Profile8& p,
                     std::span<const Code> db, GapPenalty gap,
                     ScanScratch& scratch, bool trusted) {
        return dispatch(isa, [&]<class T>(T) {
            using V = typename T::U8;
            return trusted ? striped_u8<V, false>(p, db, gap, scratch)
                           : striped_u8<V, true>(p, db, gap, scratch);
        });
    },
    .striped_i16 = [](simd::IsaLevel isa, const Profile16& p,
                      std::span<const Code> db, GapPenalty gap,
                      ScanScratch& scratch, bool trusted) {
        return dispatch(isa, [&]<class T>(T) {
            using V = typename T::I16;
            return trusted ? striped_i16<V, false>(p, db, gap, p.max_entry,
                                                   scratch)
                           : striped_i16<V, true>(p, db, gap, p.max_entry,
                                                  scratch);
        });
    },
    .interseq_u8_tiled = [](simd::IsaLevel isa, auto... args) {
        return dispatch(isa, [&]<class T>(T) {
            return interseq_u8_tiled<T>(args...);
        });
    },
    .interseq_i16_tiled = [](simd::IsaLevel isa, auto... args) {
        return dispatch(isa, [&]<class T>(T) {
            return interseq_i16_tiled<T>(args...);
        });
    },
    .ungapped_interseq_u8 = [](simd::IsaLevel isa, auto... args) {
        return dispatch(isa, [&]<class T>(T) {
            return ungapped_interseq_u8<T>(args...);
        });
    },
    .composition_cap = [](simd::IsaLevel isa, auto... args) {
        dispatch(isa, [&]<class T>(T) { composition_cap<T>(args...); });
    },
};

}  // namespace swh::align::SWH_TIER_NS
SWH_TIER_END
