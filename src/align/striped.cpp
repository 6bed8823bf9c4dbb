#include "align/striped.hpp"

#include <algorithm>
#include <new>

#include "align/interseq.hpp"
#include "align/kernels.hpp"
#include "align/sw_scalar.hpp"
#include "util/error.hpp"

namespace swh::align {

namespace {

constexpr std::size_t kScratchAlign = 64;

constexpr std::size_t round_up(std::size_t n) {
    return (n + kScratchAlign - 1) & ~(kScratchAlign - 1);
}

template <typename Cell>
StripedProfile<Cell> build_profile(std::span<const Code> query,
                                   const ScoreMatrix& matrix, int lanes,
                                   Score bias) {
    SWH_REQUIRE(lanes > 0, "lane count must be positive");
    StripedProfile<Cell> p;
    p.query_len = query.size();
    p.lanes = lanes;
    p.bias = bias;
    p.symbols = matrix.alphabet().size();
    p.seg_len = query.empty()
                    ? 1
                    : (query.size() + static_cast<std::size_t>(lanes) - 1) /
                          static_cast<std::size_t>(lanes);
    // Over-allocate by one cache line and slide the base up so every
    // profile row load in the kernels is naturally aligned (row strides
    // are whole vectors, and the scan reloads rows seg times per column).
    const std::size_t cells =
        p.symbols * p.seg_len * static_cast<std::size_t>(lanes);
    p.data.assign(cells + kScratchAlign / sizeof(Cell), Cell{0});
    const auto addr = reinterpret_cast<std::uintptr_t>(p.data.data());
    p.align_pad =
        ((kScratchAlign - addr % kScratchAlign) % kScratchAlign) / sizeof(Cell);
    for (Code a = 0; a < p.symbols; ++a) {
        Cell* row = p.data.data() + p.align_pad +
                    static_cast<std::size_t>(a) * p.seg_len *
                        static_cast<std::size_t>(lanes);
        for (std::size_t i = 0; i < p.seg_len; ++i) {
            for (int l = 0; l < lanes; ++l) {
                const std::size_t pos =
                    static_cast<std::size_t>(l) * p.seg_len + i;
                // Padding slots keep 0: with the bias it decays in the
                // 8-bit kernel; in the 16-bit kernel padded lanes only
                // carry stale (already-counted) values upward.
                if (pos < query.size()) {
                    const Score v = matrix.at(query[pos], a) + bias;
                    p.max_entry = std::max(p.max_entry, v);
                    row[i * static_cast<std::size_t>(lanes) +
                        static_cast<std::size_t>(l)] = static_cast<Cell>(v);
                }
            }
        }
    }
    return p;
}

}  // namespace

void ScanScratch::Free::operator()(std::byte* p) const {
    ::operator delete[](p, std::align_val_t{kScratchAlign});
}

void ScanScratch::ensure(std::size_t bytes) {
    if (bytes <= cap_) return;
    // Grow geometrically so a length-mixed scan settles after few resizes.
    const std::size_t cap = std::max(bytes, cap_ * 2);
    buf_.reset(static_cast<std::byte*>(
        ::operator new[](cap, std::align_val_t{kScratchAlign})));
    cap_ = cap;
}

ScanScratch::KernelBuffers ScanScratch::kernel_buffers(
    std::size_t bytes_per_buffer) {
    const std::size_t stride = round_up(bytes_per_buffer);
    ensure(3 * stride);
    std::byte* base = buf_.get();
    return {base, base + stride, base + 2 * stride};
}

ScanScratch::ScoreRows ScanScratch::score_rows(std::size_t cells_per_row) {
    const std::size_t stride = round_up(cells_per_row * sizeof(Score));
    ensure(2 * stride);
    std::byte* base = buf_.get();
    return {reinterpret_cast<Score*>(base),
            reinterpret_cast<Score*>(base + stride)};
}

Profile8 build_profile8(std::span<const Code> query, const ScoreMatrix& matrix,
                        int lanes) {
    const Score bias = matrix.bias();
    SWH_REQUIRE(matrix.max_score() + bias <= 255,
                "matrix range too wide for the 8-bit profile");
    return build_profile<std::uint8_t>(query, matrix, lanes, bias);
}

Profile16 build_profile16(std::span<const Code> query,
                          const ScoreMatrix& matrix, int lanes) {
    return build_profile<std::int16_t>(query, matrix, lanes, 0);
}

int lanes_u8(simd::IsaLevel isa) {
    switch (isa) {
        case simd::IsaLevel::Scalar:
        case simd::IsaLevel::SSE2:
            return 16;
        case simd::IsaLevel::AVX2:
            return 32;
        case simd::IsaLevel::AVX512:
            return 64;
    }
    SWH_REQUIRE(false, "unknown ISA level");
}

int lanes_i16(simd::IsaLevel isa) { return lanes_u8(isa) / 2; }

StripedResult sw_striped_u8(const Profile8& profile, std::span<const Code> db,
                            GapPenalty gap, simd::IsaLevel isa,
                            ScanScratch& scratch, bool trusted) {
    return kernels().striped_u8(isa, profile, db, gap, scratch, trusted);
}

StripedResult sw_striped_u8(const Profile8& profile, std::span<const Code> db,
                            GapPenalty gap, simd::IsaLevel isa) {
    ScanScratch scratch;
    return sw_striped_u8(profile, db, gap, isa, scratch, /*trusted=*/false);
}

StripedResult sw_striped_i16(const Profile16& profile,
                             std::span<const Code> db, GapPenalty gap,
                             simd::IsaLevel isa, ScanScratch& scratch,
                             bool trusted) {
    return kernels().striped_i16(isa, profile, db, gap, scratch, trusted);
}

StripedResult sw_striped_i16(const Profile16& profile,
                             std::span<const Code> db, GapPenalty gap,
                             simd::IsaLevel isa) {
    ScanScratch scratch;
    return sw_striped_i16(profile, db, gap, isa, scratch, /*trusted=*/false);
}

StripedAligner::StripedAligner(std::vector<Code> query,
                               const ScoreMatrix& matrix, GapPenalty gap,
                               simd::IsaLevel isa)
    : query_(std::move(query)), matrix_(&matrix), gap_(gap), isa_(isa) {
    SWH_REQUIRE(simd::is_supported(isa), "requested ISA not supported");
    // Every kernel's gap arithmetic, and the prefilter's soundness,
    // assume non-negative penalties; the u8 kernels would wrap a
    // negative one into a large charge.
    SWH_REQUIRE(gap.open >= 0 && gap.extend >= 0,
                "gap penalties must be non-negative");
    // The 8-bit profile is built on first use; its range check stays
    // here, so an unfit matrix still fails at construction.
    SWH_REQUIRE(matrix.max_score() + matrix.bias() <= 255,
                "matrix range too wide for the 8-bit profile");
    if (interseq_supported(matrix)) {
        interseq_ = std::make_unique<InterseqProfile>(
            build_interseq_profile(query_, matrix));
    }
}

StripedAligner::~StripedAligner() = default;

const Profile8& StripedAligner::profile8() const {
    std::call_once(profile8_once_, [this] {
        profile8_ = build_profile8(query_, *matrix_, lanes_u8(isa_));
    });
    return profile8_;
}

const Profile16& StripedAligner::profile16() const {
    std::call_once(profile16_once_, [this] {
        profile16_ = build_profile16(query_, *matrix_, lanes_i16(isa_));
    });
    return profile16_;
}

StripedResult StripedAligner::score_u8(std::span<const Code> db,
                                       ScanScratch& scratch,
                                       bool trusted) const {
    return sw_striped_u8(profile8(), db, gap_, isa_, scratch, trusted);
}

StripedResult StripedAligner::score_i16(std::span<const Code> db,
                                        ScanScratch& scratch,
                                        bool trusted) const {
    return sw_striped_i16(profile16(), db, gap_, isa_, scratch, trusted);
}

Score StripedAligner::rescore_i32(std::span<const Code> db,
                                  ScanScratch& scratch) const {
    const ScanScratch::ScoreRows rows = scratch.score_rows(db.size() + 1);
    return sw_score_affine_rows(query_, db, *matrix_, gap_, rows.h, rows.f);
}

Score StripedAligner::score(std::span<const Code> db,
                            ScanScratch& scratch) const {
    const StripedResult r8 = score_u8(db, scratch);
    if (!r8.overflow) return r8.score;
    const StripedResult r16 = score_i16(db, scratch);
    if (!r16.overflow) return r16.score;
    return rescore_i32(db, scratch);
}

Score StripedAligner::score(std::span<const Code> db) const {
    thread_local ScanScratch scratch;
    return score(db, scratch);
}

}  // namespace swh::align
