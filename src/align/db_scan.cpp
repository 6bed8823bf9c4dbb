#include "align/db_scan.hpp"

#include "util/error.hpp"

namespace swh::align {

DatabaseScanner::Stats& DatabaseScanner::Stats::operator+=(const Stats& o) {
    cohorts_interseq += o.cohorts_interseq;
    cohorts_striped += o.cohorts_striped;
    escalations16 += o.escalations16;
    drain_columns += o.drain_columns;
    drain_columns_skipped += o.drain_columns_skipped;
    subjects_interseq += o.subjects_interseq;
    subjects_striped += o.subjects_striped;
    cohorts_filtered += o.cohorts_filtered;
    subjects_pruned += o.subjects_pruned;
    subjects_hot += o.subjects_hot;
    cohorts_parked += o.cohorts_parked;
    subjects_saturated += o.subjects_saturated;
    filter_tiles += o.filter_tiles;
    filter_tiles_skipped += o.filter_tiles_skipped;
    settled8 += o.settled8;
    settled16 += o.settled16;
    settled32 += o.settled32;
    return *this;
}

simd::IsaLevel DatabaseScanner::drain_isa(std::size_t lanes) const {
    const simd::IsaLevel own = aligner_->isa();
    for (const simd::IsaLevel isa :
         {simd::IsaLevel::SSE2, simd::IsaLevel::AVX2}) {
        if (isa < own && lanes <= static_cast<std::size_t>(lanes_i16(isa))) {
            return isa;
        }
    }
    return own;
}

DatabaseScanner::DatabaseScanner(const StripedAligner& aligner,
                                 PackedSubjects subjects, std::size_t chunk,
                                 InterleavedCohorts cohorts,
                                 ThresholdFeed threshold)
    : aligner_(&aligner),
      subjects_(subjects),
      chunk_(chunk),
      cohorts_(cohorts),
      threshold_(threshold.tau),
      top_k_(threshold.k) {
    SWH_REQUIRE(chunk_ >= 1, "scan chunk must be at least 1");
    SWH_REQUIRE(subjects_.count == 0 || subjects_.arena != nullptr,
                "packed view has subjects but no arena");
    // The one-time validation that lets every kernel call below run
    // with the per-residue alphabet check compiled out.
    SWH_REQUIRE(subjects_.count == 0 ||
                    static_cast<std::size_t>(subjects_.max_code) <
                        aligner.matrix().alphabet().size(),
                "packed residues outside the aligner's alphabet");
    if (cohorts_.count == 0) return;

    SWH_REQUIRE(cohorts_.arena != nullptr && cohorts_.cohorts != nullptr,
                "cohort view has cohorts but no arena");
    SWH_REQUIRE(aligner.interseq() != nullptr,
                "cohort scan needs an inter-sequence-capable aligner");
    SWH_REQUIRE(cohorts_.lanes == lanes_u8(aligner.isa()),
                "cohort width does not match the aligner's u8 lane count");
    SWH_REQUIRE(cohorts_.lanes <= 64,
                "cohort width exceeds the 64-lane overflow mask");
    SWH_REQUIRE(cohorts_.pad_code == InterseqProfile::kPadCode,
                "cohort padding sentinel mismatch");

    // Precompute the per-cohort route once: the scan itself then
    // branches on a byte. Inter-sequence pays off when the cohort is
    // full enough for the lane-parallel win to survive the pad cells
    // (the bar shrinks with query length, see min_fill_pct); the
    // query-tiled kernel keeps its DP rows cache-resident at any query
    // length, so query length alone never forces the striped route.
    const std::size_t qlen = aligner.interseq()->query_len;
    interseq_.assign(cohorts_.count, 0);
    if (qlen > 0) {
        const std::uint64_t bar = min_fill_pct(qlen);
        for (std::size_t c = 0; c < cohorts_.count; ++c) {
            const CohortDesc& d = cohorts_.cohorts[c];
            const std::uint64_t cells =
                std::uint64_t{d.columns} *
                static_cast<std::uint64_t>(cohorts_.lanes);
            if (d.columns > 0 && d.residues * 100 >= cells * bar) {
                interseq_[c] = 1;
            }
        }
    }
}

void DatabaseScanner::merge(const Stats& s) {
    LockGuard lock(stats_mu_);
    stats_ += s;
}

DatabaseScanner::Stats DatabaseScanner::stats() const {
    LockGuard lock(stats_mu_);
    return stats_;
}

}  // namespace swh::align
