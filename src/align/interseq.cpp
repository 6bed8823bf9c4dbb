#include "align/interseq.hpp"

#include <algorithm>
#include <cstdint>
#include <new>

#include "align/kernels.hpp"
#include "util/error.hpp"

namespace swh::align {

namespace {
constexpr std::size_t kColumnStateAlign = 64;
}

void InterseqColumnState::Free::operator()(std::byte* p) const {
    ::operator delete[](p, std::align_val_t{kColumnStateAlign});
}

InterseqColumnState::Arrays InterseqColumnState::arrays(
    std::size_t bytes_per_array) {
    // Both carried arrays live in one allocation, each rounded up to
    // the alignment so the F half starts aligned too. Geometric growth:
    // a scan touches many cohort widths, and reallocating per cohort
    // would put an allocation in the steady-state hot path.
    const std::size_t rounded =
        (bytes_per_array + kColumnStateAlign - 1) & ~(kColumnStateAlign - 1);
    const std::size_t need = 2 * rounded;
    if (need > capacity_) {
        const std::size_t grown = std::max(need, capacity_ * 2);
        buffer_.reset(static_cast<std::byte*>(
            ::operator new[](grown, std::align_val_t{kColumnStateAlign})));
        capacity_ = grown;
    }
    Arrays a;
    a.h = buffer_.get();
    a.f = buffer_.get() + rounded;
    return a;
}

bool interseq_supported(const ScoreMatrix& matrix) {
    // Residue codes plus the padding sentinel must fit the 32-entry
    // lookup table, the entries the int8 profile, and the biased score
    // range u8 (the same bound build_profile8 enforces for the striped
    // kernel, whose overflow flag the u8 kernels reproduce).
    return matrix.alphabet().size() <= InterseqProfile::kPadCode &&
           matrix.min_score() >= INT8_MIN && matrix.max_score() <= INT8_MAX &&
           matrix.max_score() + matrix.bias() <= 255;
}

InterseqProfile build_interseq_profile(std::span<const Code> query,
                                       const ScoreMatrix& matrix) {
    SWH_REQUIRE(interseq_supported(matrix),
                "matrix does not fit the inter-sequence kernels");
    InterseqProfile p;
    p.query_len = query.size();
    p.bias = matrix.bias();
    p.symbols = matrix.alphabet().size();
    // Over-allocate one row and slide the base so every 32-byte LUT row
    // is naturally aligned (rows are reloaded once per cell).
    p.data.assign((query.size() + 1) * InterseqProfile::kStride, INT8_MIN);
    const auto addr = reinterpret_cast<std::uintptr_t>(p.data.data());
    p.align_pad = (InterseqProfile::kStride - addr % InterseqProfile::kStride) %
                  InterseqProfile::kStride;
    p.row_cap_prefix.assign(query.size() + 1, 0);
    for (std::size_t i = 0; i < query.size(); ++i) {
        std::int8_t* row = p.data.data() + p.align_pad +
                           i * InterseqProfile::kStride;
        Score row_cap = 0;
        for (Code a = 0; a < p.symbols; ++a) {
            const Score raw = matrix.at(query[i], a);
            p.max_raw = std::max(p.max_raw, raw);
            row[a] = static_cast<std::int8_t>(raw);
            row_cap = std::max(row_cap, raw);
            p.col_cap[a] = std::max(
                p.col_cap[a], static_cast<std::int8_t>(std::max(raw, 0)));
        }
        // Slots past the alphabet (including kPadCode) keep -128, the
        // most-penalising score, so padded lanes only decay.
        p.row_cap_prefix[i + 1] = p.row_cap_prefix[i] + row_cap;
    }
    return p;
}

std::uint64_t sw_interseq_u8_tiled(const InterseqProfile& profile,
                                   const Code* cols, std::size_t columns,
                                   GapPenalty gap, simd::IsaLevel isa,
                                   ScanScratch& scratch,
                                   InterseqColumnState& state,
                                   std::uint8_t* lane_best) {
    return kernels().interseq_u8_tiled(isa, profile, cols, columns, gap,
                                       scratch, state, lane_best);
}

I16Pass sw_interseq_i16_tiled(const InterseqProfile& profile,
                              const Code* cols, std::size_t columns,
                              GapPenalty gap, simd::IsaLevel isa,
                              ScanScratch& scratch, InterseqColumnState& state,
                              const std::int16_t* seed,
                              std::int16_t* lane_best) {
    return kernels().interseq_i16_tiled(isa, profile, cols, columns, gap,
                                        scratch, state, seed, lane_best);
}

}  // namespace swh::align
