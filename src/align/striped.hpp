#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "align/interseq.hpp"
#include "align/score_matrix.hpp"
#include "align/sequence.hpp"
#include "simd/arch.hpp"
#include "util/annotations.hpp"

namespace swh::align {

/// A cohort the scan funnel probed before its pruning threshold existed,
/// with lanes left to decide (see DatabaseScanner::claim_cohorts): those
/// lanes (the hot ones are already settled), every lane's first-tile
/// bound, and the largest bound among `lanes`.
struct ParkedCohort {
    std::uint32_t cohort = 0;
    std::uint8_t best = 0;
    std::uint64_t lanes = 0;
    std::uint8_t partial[64] = {};
};

/// Reusable, 64-byte-aligned scratch memory for the striped kernels and
/// the scalar int32 rescore fallback. One instance per worker thread;
/// the kernels carve their H/E buffers out of it, so repeated score()
/// calls perform zero heap allocations once the scratch has grown to the
/// largest segment in the workload. Not thread-safe — never share one
/// instance between concurrently scoring threads.
class ScanScratch {
public:
    /// Three kernel buffers (H-load, H-store, E), each `bytes_per_buffer`
    /// long and 64-byte aligned. Contents are unspecified; the kernel
    /// zeroes what it needs.
    struct KernelBuffers {
        void* h_load;
        void* h_store;
        void* e;
    };
    KernelBuffers kernel_buffers(std::size_t bytes_per_buffer);

    /// Two int32 rolling rows (H and F) of `cells_per_row` entries each,
    /// for the scalar Gotoh rescore. Aliases the kernel buffers — the
    /// two uses never overlap within one subject.
    struct ScoreRows {
        Score* h;
        Score* f;
    };
    ScoreRows score_rows(std::size_t cells_per_row);

    std::size_t capacity() const { return cap_; }

    /// The worker's carried column state of the query-tiled
    /// inter-sequence kernels: a separate allocation, so it stays put
    /// when kernel_buffers() grows, and it stays warm across scans.
    InterseqColumnState& column_state() { return columns_; }

    /// The worker's lists of the cohort funnel
    /// (DatabaseScanner::run_worker), kept so a warm worker scans
    /// without allocating: the deferred batch of u8-overflowed and hot
    /// lanes (original indices), the stage-3 drain's dense repack, and
    /// the parked cohorts. A scan starts with them empty.
    struct FunnelLists {
        std::vector<std::uint32_t> deferred;
        std::vector<Code> repack;
        std::vector<ParkedCohort> parked;
    };
    FunnelLists& funnel() { return funnel_; }

private:
    void ensure(std::size_t bytes);

    struct Free {
        void operator()(std::byte* p) const;
    };
    std::unique_ptr<std::byte[], Free> buf_;
    std::size_t cap_ = 0;
    InterseqColumnState columns_;
    FunnelLists funnel_;
};

/// Striped query profile (Farrar 2007). For a query of length m split
/// into L lanes of segments of length seg = ceil(m/L), entry
/// (symbol a, segment i, lane l) holds the substitution score of a
/// against query residue q[l*seg + i] — plus `bias` in the 8-bit profile
/// so every stored value is non-negative. Out-of-range (padding) slots
/// store 0, which decays harmlessly in the kernel.
template <typename Cell>
struct StripedProfile {
    std::size_t query_len = 0;
    std::size_t seg_len = 0;  ///< vectors per column
    int lanes = 0;
    Score bias = 0;  ///< 0 for the signed 16-bit profile
    Score max_entry = 0;  ///< largest stored value; bounds one add step
    std::size_t symbols = 0;
    /// [symbol][segment][lane], vectors contiguous. Over-allocated so
    /// the first row starts 64-byte aligned (see align_pad): with the
    /// real lane widths every row is then naturally aligned for its
    /// vector size, so profile loads never split cache lines.
    std::vector<Cell> data;
    std::size_t align_pad = 0;  ///< Cells from data.data() to the base

    const Cell* row(Code symbol) const {
        return data.data() + align_pad +
               static_cast<std::size_t>(symbol) * seg_len *
                   static_cast<std::size_t>(lanes);
    }
};

using Profile8 = StripedProfile<std::uint8_t>;
using Profile16 = StripedProfile<std::int16_t>;

Profile8 build_profile8(std::span<const Code> query, const ScoreMatrix& matrix,
                        int lanes);
Profile16 build_profile16(std::span<const Code> query,
                          const ScoreMatrix& matrix, int lanes);

/// Result of one striped scan. `overflow` means the arithmetic may have
/// saturated and the caller must escalate to a wider kernel.
struct StripedResult {
    Score score = 0;
    bool overflow = false;
};

/// 8-bit unsigned saturated kernel (max representable score 255, the
/// paper's 8-bit bound). `isa` must be supported (see simd::is_supported).
/// This convenience overload allocates its own scratch per call; hot
/// scan loops should pass a reused ScanScratch instead.
StripedResult sw_striped_u8(const Profile8& profile, std::span<const Code> db,
                            GapPenalty gap, simd::IsaLevel isa);

/// Allocation-free variant: H/E buffers come from `scratch`. With
/// `trusted = true` the per-residue alphabet check is skipped — only
/// pass pre-validated residues (e.g. a db::PackedDatabase arena).
SWH_HOT_PATH StripedResult sw_striped_u8(const Profile8& profile, std::span<const Code> db,
                            GapPenalty gap, simd::IsaLevel isa,
                            ScanScratch& scratch, bool trusted = false);

/// 16-bit signed saturated kernel (max score 32767, the paper's 16-bit
/// bound).
StripedResult sw_striped_i16(const Profile16& profile,
                             std::span<const Code> db, GapPenalty gap,
                             simd::IsaLevel isa);

/// Allocation-free variant; see sw_striped_u8.
SWH_HOT_PATH StripedResult sw_striped_i16(const Profile16& profile,
                             std::span<const Code> db, GapPenalty gap,
                             simd::IsaLevel isa, ScanScratch& scratch,
                             bool trusted = false);

/// Number of lanes each kernel uses at a given ISA level (profile layout
/// depends on it).
int lanes_u8(simd::IsaLevel isa);
int lanes_i16(simd::IsaLevel isa);

/// Query-vs-many-databases scorer with automatic 8 -> 16 -> 32-bit
/// escalation, mirroring how SSE database-search tools (and the paper's
/// adapted Farrar code) handle score overflow. The striped u8 and i16
/// profiles are built on first use (std::call_once), so a funnel scan
/// whose cohorts all take the inter-sequence route never builds them;
/// everything else is fixed at construction, and concurrent calls are
/// thread-safe. The escalation tally of a scan lives in
/// DatabaseScanner::Stats.
struct InterseqProfile;

class StripedAligner {
public:
    /// Throws ContractError when `isa` is not supported or a gap
    /// penalty is negative.
    StripedAligner(std::vector<Code> query, const ScoreMatrix& matrix,
                   GapPenalty gap,
                   simd::IsaLevel isa = simd::best_supported());
    ~StripedAligner();

    /// Exact local alignment score of the query against one db sequence.
    /// Uses a thread-local ScanScratch, so steady-state calls are
    /// allocation-free on every escalation path.
    Score score(std::span<const Code> db) const;

    /// Same, with an explicit scratch (for callers that manage their own
    /// per-worker scratch, e.g. DatabaseScanner).
    SWH_HOT_PATH Score score(std::span<const Code> db,
                             ScanScratch& scratch) const;

    /// Pass-1 primitive of the batched two-pass scan: runs only the u8
    /// kernel. On `overflow` the caller must settle the subject later
    /// with score_i16(), then rescore_i32() if that overflows too.
    SWH_HOT_PATH StripedResult score_u8(std::span<const Code> db,
                                        ScanScratch& scratch,
                                        bool trusted = false) const;

    /// Pass-2 primitive: the striped i16 kernel alone, routed through
    /// `scratch`. On `overflow` the caller settles with rescore_i32().
    SWH_HOT_PATH StripedResult score_i16(std::span<const Code> db,
                                         ScanScratch& scratch,
                                         bool trusted = false) const;

    /// Final-escalation primitive: the exact scalar int32 alignment,
    /// for subjects a 16-bit kernel already proved saturated (the
    /// striped score_i16() or an overflowed lane of a batched interseq
    /// i16 escalation).
    SWH_HOT_PATH Score rescore_i32(std::span<const Code> db,
                                   ScanScratch& scratch) const;

    std::span<const Code> query() const { return query_; }
    const ScoreMatrix& matrix() const { return *matrix_; }
    GapPenalty gap() const { return gap_; }
    simd::IsaLevel isa() const { return isa_; }

    /// Transposed query profile for the inter-sequence kernels (see
    /// align/interseq.hpp), built at construction when the matrix fits
    /// them; null means the scan must stay on the striped kernels.
    const InterseqProfile* interseq() const { return interseq_.get(); }

private:
    const Profile8& profile8() const;
    const Profile16& profile16() const;

    std::vector<Code> query_;
    const ScoreMatrix* matrix_;
    GapPenalty gap_;
    simd::IsaLevel isa_;
    mutable std::once_flag profile8_once_;
    mutable std::once_flag profile16_once_;
    mutable Profile8 profile8_;
    mutable Profile16 profile16_;
    std::unique_ptr<InterseqProfile> interseq_;  // null = not eligible
};

}  // namespace swh::align
