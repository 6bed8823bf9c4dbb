#include "align/db_scan.hpp"

#include <cstdlib>
#include <limits>

#include "util/error.hpp"

namespace swh::align {

DatabaseScanner::Stats& DatabaseScanner::Stats::operator+=(const Stats& o) {
    cohorts_interseq += o.cohorts_interseq;
    cohorts_compacted += o.cohorts_compacted;
    cohorts_striped += o.cohorts_striped;
    repacks += o.repacks;
    escalations16 += o.escalations16;
    subjects_interseq += o.subjects_interseq;
    subjects_compacted += o.subjects_compacted;
    subjects_striped += o.subjects_striped;
    cohorts_filtered += o.cohorts_filtered;
    subjects_pruned += o.subjects_pruned;
    filter_offs += o.filter_offs;
    subjects_saturated += o.subjects_saturated;
    filter_tiles += o.filter_tiles;
    filter_tiles_skipped += o.filter_tiles_skipped;
    settled8 += o.settled8;
    settled_wide += o.settled_wide;
    return *this;
}

DatabaseScanner::DatabaseScanner(const StripedAligner& aligner,
                                 PackedSubjects subjects, std::size_t chunk,
                                 InterleavedCohorts cohorts,
                                 const std::atomic<Score>* threshold)
    : aligner_(&aligner),
      subjects_(subjects),
      chunk_(chunk),
      cohorts_(cohorts),
      threshold_(threshold) {
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

    if (threshold_ == nullptr || cohorts_.count <= kPrimeCohorts) return;
    // Threshold priming: scan the cohorts most likely to hold the top
    // scorers first, so the dynamic threshold reaches a useful value
    // before the bulk of the scan. Homologs of the query cluster near
    // its length, so rank cohorts by their nearest member,
    // min |member length - query length|, and pull the best
    // kPrimeCohorts to the front. A cohort's mean length would hide a
    // family split by the layout: members sharing a compacted cohort
    // with much longer subjects would be claimed last. The
    // remainder follows in ascending column order — shortest cohorts
    // carry the cheapest sweeps and the best pruning odds, and the
    // filter-off guard (claim_cohorts) relies on crossing the
    // hopeless-length boundary before the expensive cohorts arrive.
    const auto want_len = static_cast<std::int64_t>(aligner.query().size());
    std::vector<std::uint32_t> ranked(cohorts_.count);
    for (std::size_t c = 0; c < cohorts_.count; ++c) {
        ranked[c] = static_cast<std::uint32_t>(c);
    }
    std::vector<std::int64_t> dist(cohorts_.count,
                                   std::numeric_limits<std::int64_t>::max());
    for (std::size_t c = 0; c < cohorts_.count; ++c) {
        const CohortDesc& d = cohorts_.cohorts[c];
        for (std::uint32_t l = 0; l < d.lanes_used; ++l) {
            const auto len = static_cast<std::int64_t>(
                subjects_.lengths[member_index(d, l)]);
            dist[c] = std::min(dist[c], std::abs(len - want_len));
        }
    }
    std::partial_sort(ranked.begin(), ranked.begin() + kPrimeCohorts,
                      ranked.end(), [&](std::uint32_t a, std::uint32_t b) {
                          return dist[a] != dist[b] ? dist[a] < dist[b]
                                                    : a < b;
                      });
    // Primed cohorts run best-match first — the sooner the likeliest
    // cohort's exact scores land, the sooner the threshold bites.
    std::vector<std::uint8_t> primed(cohorts_.count, 0);
    prime_order_.reserve(cohorts_.count);
    for (std::size_t p = 0; p < kPrimeCohorts; ++p) {
        primed[ranked[p]] = 1;
    }
    prime_order_.assign(ranked.begin(), ranked.begin() + kPrimeCohorts);
    // The layout orders cohorts longest-first; walk it backwards for
    // the ascending-columns remainder.
    for (std::uint32_t c = static_cast<std::uint32_t>(cohorts_.count); c > 0;
         --c) {
        if (!primed[c - 1]) prime_order_.push_back(c - 1);
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
