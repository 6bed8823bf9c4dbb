#pragma once

// Packed scan representation of a sequence database: one contiguous,
// 64-byte-aligned residue arena with per-subject offsets/lengths, plus a
// length-sorted scan permutation. This is the layout the striped-kernel
// hot path scans (cf. SWIPE/SWAPHI-style packed device buffers): a scan
// walks the arena sequentially instead of pointer-chasing one
// heap-allocated std::vector per sequence, and residues are validated
// against the alphabet ONCE here instead of per kernel inner loop.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "align/db_scan.hpp"
#include "align/sequence.hpp"
#include "util/annotations.hpp"

namespace swh::db {

/// Lane-interleaved cohort layout of a packed database at one SIMD
/// width W: scan-order subjects are grouped into cohorts and each
/// cohort's residues are stored column-major — column j holds residue
/// j of every member, short lanes padded with the inter-sequence
/// padding sentinel. This is the input geometry of
/// align::sw_interseq_u8_tiled/i16_tiled. Built lazily by
/// PackedDatabase::interleaved().
///
/// Grouping: W consecutive scan-order slots form a natural cohort when
/// the full-width fill meets kCohortFillPct (the longest-first scan
/// order makes such members near-equal length). The leftovers — the
/// divergent long-subject head groups and the partial tail — are
/// re-packed by length adjacency into dense compacted cohorts
/// (CohortDesc::kCompacted, possibly fewer than W members, down to a
/// 1-subject tail), so low-fill stretches stop forcing full-width pad
/// columns. Cohort membership is carried by a slots table: lane l of
/// cohort d is scan slot slots()[d.first_slot + l].
class InterleavedChunks {
public:
    /// Minimum used-lane residue fill (percent) for keeping a natural
    /// full-width group, and for extending a compacted group by one
    /// more (shorter) member. Mirrors the historical dispatch bar so a
    /// kept natural cohort is never worse-filled than before.
    static constexpr std::uint64_t kCohortFillPct = 75;

    int lanes() const { return lanes_; }
    std::size_t cohort_count() const { return cohorts_.size(); }
    const align::CohortDesc& cohort(std::size_t c) const {
        return cohorts_[c];
    }
    /// Cohort-member table (cohort-major scan slots, see CohortDesc).
    std::span<const std::uint32_t> slots() const { return slots_; }
    /// Cohorts assembled by the compacted-tail build.
    std::size_t compacted_cohorts() const { return compacted_; }

    /// Non-owning view for align::DatabaseScanner; valid while this
    /// object (i.e. the owning PackedDatabase) is alive.
    align::InterleavedCohorts view() const;

private:
    friend class PackedDatabase;

    struct ArenaFree {
        void operator()(align::Code* p) const;
    };

    std::unique_ptr<align::Code[], ArenaFree> arena_;
    std::vector<align::CohortDesc> cohorts_;
    std::vector<std::uint32_t> slots_;
    std::size_t compacted_ = 0;
    int lanes_ = 0;
};

class PackedDatabase {
public:
    PackedDatabase() = default;

    /// Copies every residue into the arena, recording per-subject
    /// offsets/lengths, the largest residue code seen (the pack-time
    /// validation artefact consumed by align::DatabaseScanner), and the
    /// scan permutation: subjects ordered longest-first (ties by
    /// original index), so chunked workers process similar lengths with
    /// similarly sized scratch and the long tail is claimed early.
    static PackedDatabase pack(const std::vector<align::Sequence>& sequences);

    std::size_t size() const { return lengths_.size(); }
    std::uint64_t residues() const { return residues_; }
    std::size_t max_length() const { return max_length_; }
    align::Code max_code() const { return max_code_; }

    /// Residues of subject i (original database index).
    std::span<const align::Code> subject(std::size_t i) const {
        return {arena_.get() + offsets_[i], lengths_[i]};
    }
    std::uint32_t length(std::size_t i) const { return lengths_[i]; }

    /// The length-sorted scan permutation (original indices).
    std::span<const std::uint32_t> scan_order() const { return order_; }

    /// Non-owning view for align::DatabaseScanner. Valid as long as
    /// this PackedDatabase is alive.
    align::PackedSubjects view() const;

    /// Lane-interleaved cohort layout at width `lanes` (the aligner's
    /// u8 lane count, see align::lanes_u8). Built on first request and
    /// cached per width; thread-safe. Requires every residue code to
    /// stay below the padding sentinel — guaranteed whenever the matrix
    /// passes align::interseq_supported().
    const InterleavedChunks& interleaved(int lanes) const;

private:
    struct ArenaFree {
        void operator()(align::Code* p) const;
    };

    /// interleaved() cache, one entry per requested width. Behind a
    /// unique_ptr so PackedDatabase stays movable despite the mutex.
    struct ItlCache {
        swh::Mutex mutex;
        std::vector<std::unique_ptr<InterleavedChunks>> built
            SWH_GUARDED_BY(mutex);
    };

    std::unique_ptr<align::Code[], ArenaFree> arena_;
    std::vector<std::uint64_t> offsets_;
    std::vector<std::uint32_t> lengths_;
    std::vector<std::uint32_t> order_;
    std::uint64_t residues_ = 0;
    std::size_t max_length_ = 0;
    align::Code max_code_ = 0;
    std::unique_ptr<ItlCache> itl_ = std::make_unique<ItlCache>();
};

}  // namespace swh::db
