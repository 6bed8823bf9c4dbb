#pragma once

// Packed scan representation of a sequence database: one contiguous,
// 64-byte-aligned residue arena with per-subject offsets/lengths, plus a
// length-sorted scan permutation (cf. SWIPE/SWAPHI-style packed device
// buffers): a scan walks the arena sequentially instead of
// pointer-chasing one heap-allocated std::vector per sequence, and
// residues are validated against the alphabet ONCE here instead of per
// kernel inner loop. The striped kernel scores subjects straight from
// this arena; the inter-sequence kernels read the lane-interleaved
// cohorts built from it (InterleavedChunks): consecutive runs of the
// scan order, one run per cohort.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "align/db_scan.hpp"
#include "align/sequence.hpp"
#include "util/annotations.hpp"

namespace swh::db {

/// Lane-interleaved cohort layout of a packed database at one SIMD
/// width W: cohort c holds scan slots [c*W, min(c*W + W, n)) — W
/// consecutive subjects of the longest-first scan order, the last
/// cohort possibly partial — with its residues stored column-major
/// (column j holds residue j of every member, short and absent lanes
/// padded with the inter-sequence padding sentinel; see
/// align::interleave_subjects). Its column count is its first member's
/// length. This is the input geometry of
/// align::sw_interseq_u8_tiled/i16_tiled. Built lazily by
/// PackedDatabase::interleaved(); the scanner picks each cohort's route
/// (inter-sequence or striped per subject) from its fill.
class InterleavedChunks {
public:
    int lanes() const { return lanes_; }
    std::size_t cohort_count() const { return cohorts_.size(); }
    const align::CohortDesc& cohort(std::size_t c) const {
        return cohorts_[c];
    }

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
