#pragma once

// Three-stage funnel scan over a packed subject arena.
//
// Stage 1 (optional, cohort mode only): an allocation-free ungapped
// inter-sequence prefilter (align/ungapped.hpp) sweeps each cohort in
// query row tiles and sums the per-lane tile maxima into provable upper
// bounds on the gapped scores, capped by a query-row bound on the
// unswept tiles and a per-subject composition cap; the sweep stops once
// those decide every lane. Lanes whose bound falls strictly below the
// caller-published pruning threshold — fed back from the running k-th
// best exact score — are skipped entirely; u8-saturated lanes carry no
// tile bound and survive unless their cap rules them out, so the
// surviving top-k is bit-identical to an exhaustive scan. Before the
// threshold exists a cohort gets only a one-tile probe: lanes that
// clip u8 in it ("hot", the homolog signal) go to the wide exact drain,
// whose scores create the threshold — held until the worker's settled
// and held lanes reach k, so the drain that runs can seed it — and the
// other lanes are decided by resuming the sweep at the second tile once
// it exists: at once, or from a worker-local park after the claims run
// out. See DESIGN.md "Prefilter funnel" for the soundness argument.
//
// Stage 2 runs every survivor through an 8-bit exact kernel and defers
// the (rare) overflowed ones; stage 3 settles the deferred batch and the
// hot lanes — in cohort mode by interleaving length-adjacent groups of
// at most one i16 vector's lanes into dense scratch cohorts for one i16
// inter-sequence pass each, at the narrowest SIMD width whose i16
// vector holds the group, skipping the tile columns no lane can use
// (scalar int32 for the rare lane that saturates 16 bits too); serial
// striped i16 only on the packed path.
//
// When the caller also provides a lane-interleaved cohort layout (see
// db::PackedDatabase::interleaved and align/interseq.hpp), stage 2
// picks a route per cohort from one fill bar (min_fill_pct, falling
// with query length): a cohort whose real residues fill enough of its
// columns x W cells has its survivors scored W subjects at a time by
// the query-tiled inter-sequence u8 kernel (one tile is the short-query
// case), pruned lanes masked; a cohort below the bar — the long,
// ragged head of the scan order and the partial tail — has its
// survivors scored per subject by the striped kernel. The emit contract
// (exactly one settled score per non-pruned subject, original
// db_index) is the same on every path.
//
// The scanner consumes non-owning views so swh_align stays independent
// of swh_db (which produces the views, see db::PackedDatabase).

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "align/ungapped.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"

namespace swh::align {

/// Non-owning view of a packed subject set: one contiguous residue
/// arena plus per-subject offsets/lengths and a scan permutation.
/// Residues are validated at pack time; `max_code` carries the proof,
/// which DatabaseScanner checks once against the query profile so the
/// kernels can skip the per-residue alphabet check.
struct PackedSubjects {
    const Code* arena = nullptr;
    const std::uint64_t* offsets = nullptr;  ///< start of subject i
    const std::uint32_t* lengths = nullptr;
    /// Scan permutation (length-sorted, longest first). Null = identity.
    const std::uint32_t* order = nullptr;
    std::size_t count = 0;
    std::size_t max_length = 0;
    Code max_code = 0;  ///< largest residue code present in the arena

    std::span<const Code> subject(std::size_t i) const {
        return {arena + offsets[i], lengths[i]};
    }
};

/// Column-major interleave of `count` subjects (original indices,
/// count <= w) at width `w`: out[j*w + l] is residue j of `members[l]`,
/// InterseqProfile::kPadCode past each member's length and in lanes
/// count..w-1. `out` holds columns*w codes, `columns` covering the
/// longest member. The one cohort packing of both the database layout
/// (db::PackedDatabase::interleaved) and the scanner's stage-3 drain.
SWH_HOT_PATH inline void interleave_subjects(const PackedSubjects& subjects,
                                             const std::uint32_t* members,
                                             std::size_t count, std::size_t w,
                                             std::span<Code> out) {
    SWH_DCHECK(count <= w && out.size() % w == 0,
               "interleave: member count or buffer exceeds the width");
    std::fill(out.begin(), out.end(), InterseqProfile::kPadCode);
    for (std::size_t l = 0; l < count; ++l) {
        const std::span<const Code> s = subjects.subject(members[l]);
        SWH_DCHECK(s.size() * w <= out.size(),
                   "interleave: member longer than the buffer's columns");
        for (std::size_t j = 0; j < s.size(); ++j) out[j * w + l] = s[j];
    }
}

/// Pruning-threshold feed of the stage-1 prefilter. `tau`, when
/// non-null, arms the prefilter (cohort mode only; inert otherwise):
/// each cohort loads the current value — the caller keeps it at the
/// running k-th best exact score, or any value <= 0 /
/// engines::TopK::kNoThreshold while fewer than k hits exist — and
/// prunes lanes whose gap-slack score bound falls strictly below it.
/// The atomic must only ever increase and must outlive the scanner;
/// monotonicity is what makes a stale read safe (a lower threshold
/// only prunes less). `k` is that top-k size: while no threshold
/// exists, a worker holds its hot lanes until its settled hits plus
/// the held lanes reach k (see claim_cohorts). Any k yields the same
/// top-k; only the number of drain passes depends on it.
struct ThresholdFeed {
    const std::atomic<Score>* tau = nullptr;
    std::size_t k = 0;
};

/// Thread-safe scan orchestrator: workers claim work from a shared
/// cursor (chunks of subjects, or whole cohorts when a lane-interleaved
/// layout is attached) and run the funnel scan. One instance per
/// (aligner, database) scan; call run_worker from each worker thread
/// with a thread-private ScanScratch.
class DatabaseScanner {
public:
    static constexpr std::size_t kDefaultChunk = 64;

    /// Baseline minimum real-residue fill of a cohort (percent of
    /// columns * full width) for inter-sequence dispatch at long query
    /// lengths; see min_fill_pct() for the query-length-dependent bar.
    /// Also the greedy fill rule of cliff_groups.
    static constexpr std::uint64_t kInterseqMinFillPct = 75;

    /// Half-width of the banded score that seeds each drain lane's best
    /// (see drain_overflow): wide enough to follow the indels of a
    /// homolog along the scaled main diagonal, and O(qlen * 33) scalar
    /// cells per lane, in two 33-cell rows on the stack, against the
    /// qlen * len of the pass it prunes.
    static constexpr std::size_t kDrainSeedBand = 16;

    /// Full-width fill bar for inter-sequence dispatch as a function of
    /// query length. The interseq kernel pays columns * W cells no
    /// matter how many lanes are real, so it wins only when fill
    /// exceeds ~1/alpha, where alpha is its full-fill advantage over
    /// the striped kernel — measured ~2.4x for short queries, shrinking
    /// towards ~1.3x once the striped kernel's lazy-F overhead
    /// amortises over a long query.
    static constexpr std::uint64_t min_fill_pct(std::size_t qlen) {
        return qlen <= 128 ? 45 : qlen <= 384 ? 60 : kInterseqMinFillPct;
    }

    /// Scan counters, one struct for the whole scanner. Each worker
    /// tallies into a private instance and merges it into the scanner
    /// total once, at the end of run_worker; stats() reads the total
    /// (cumulative across workers and resets).
    ///
    /// Exact-stage routes: `cohorts_interseq` counts every cohort
    /// scored by the inter-sequence u8 kernel, `cohorts_striped` every
    /// fill-bar rejection scored per subject by the striped kernel.
    /// Subjects deferred to the wide rescore count under the kernel
    /// that deferred them, hot ones in `subjects_hot`; pruned subjects
    /// appear in none of the other `subjects_*` fields.
    struct Stats {
        std::uint64_t cohorts_interseq = 0;
        std::uint64_t cohorts_striped = 0;
        /// i16 inter-sequence passes of the stage-3 drain: one per
        /// cliff group of deferred u8-overflow and hot lanes.
        std::uint64_t escalations16 = 0;
        /// Tile-columns of those passes (query tiles x group columns),
        /// and the ones skipped because no lane could use them (see
        /// sw_interseq_i16_tiled).
        std::uint64_t drain_columns = 0;
        std::uint64_t drain_columns_skipped = 0;
        std::uint64_t subjects_interseq = 0;
        std::uint64_t subjects_striped = 0;
        /// Stage-1 prefilter: cohorts it swept (in full, or probed
        /// before the threshold existed), and lanes proven out of the
        /// top-k and skipped.
        std::uint64_t cohorts_filtered = 0;
        std::uint64_t subjects_pruned = 0;
        /// Probe outcomes: lanes whose first-tile bound clipped u8 and
        /// went to the wide drain, and cohorts parked with undecided
        /// lanes until the worker's claims ran out.
        std::uint64_t subjects_hot = 0;
        std::uint64_t cohorts_parked = 0;
        /// Lanes that survived stage 1 only because a tile's u8 bound
        /// clipped: their summed (clipped) bound fell below tau.
        std::uint64_t subjects_saturated = 0;
        /// Prefilter row tiles swept, and the ones avoided because every
        /// lane of the cohort was already decided (see
        /// sw_ungapped_tiled_u8) or settled without a bound after its
        /// probe.
        std::uint64_t filter_tiles = 0;
        std::uint64_t filter_tiles_skipped = 0;
        /// Settlements by kernel width, the one escalation tally
        /// (engine.cpu.runs8/16/32): u8 (inter-sequence or striped),
        /// i16 (the batched inter-sequence drain or striped i16), and
        /// the exact scalar int32 rescore.
        std::uint64_t settled8 = 0;
        std::uint64_t settled16 = 0;
        std::uint64_t settled32 = 0;

        Stats& operator+=(const Stats& o);
    };

    /// Validates once that every packed residue fits the aligner's
    /// profile alphabet (throws ContractError otherwise) — the per-
    /// subject kernel calls then run with the check compiled out. If
    /// `cohorts` is non-empty, the aligner must have an inter-sequence
    /// profile and the cohort width must match its u8 lane count; the
    /// per-cohort kernel choice is precomputed here.
    ///
    /// `threshold` arms the stage-1 prefilter (see ThresholdFeed).
    DatabaseScanner(const StripedAligner& aligner, PackedSubjects subjects,
                    std::size_t chunk = kDefaultChunk,
                    InterleavedCohorts cohorts = {},
                    ThresholdFeed threshold = {});

    /// Claims work until the database is exhausted or `emit` asks to
    /// stop. `emit(db_index, length, score) -> bool` is called exactly
    /// once per settled subject — in scan order for stage-2 subjects,
    /// then for this worker's deferred overflow batch (drained after
    /// every claim when the prefilter is armed: the deferred lanes are
    /// the likely top scorers, and settling them early is what feeds
    /// the pruning threshold while the scan is still young; before the
    /// threshold exists, a probe's hot lanes are held until they can
    /// seed it or the claims run out, and parked cohorts settle after
    /// the last claim); `db_index` is always the ORIGINAL database
    /// index regardless of scan order.
    /// `pruned(db_index, length) -> bool` is called exactly once per
    /// subject the prefilter proved out of the top-k (never called when
    /// the prefilter is unarmed). Once either callback returns false
    /// the worker settles no further subjects (the deferred batch
    /// included). Returns false iff a callback returned false (scan
    /// cancelled).
    template <class EmitFn, class PrunedFn>
    SWH_HOT_PATH bool run_worker(ScanScratch& scratch, EmitFn&& emit,
                                 PrunedFn&& pruned) {
        Stats t;
        std::vector<std::uint32_t>& overflow = scratch.funnel().deferred;
        overflow.clear();
        bool keep = cohort_mode()
                        ? claim_cohorts(scratch, emit, pruned, overflow, t)
                        : claim_subjects(scratch, emit, overflow, t);
        // Final stage (packed path only — cohort mode drains its own
        // batch, see drain_overflow): settle the deferred overflow
        // batch with the striped i16 kernel, then scalar int32.
        for (const std::uint32_t idx : overflow) {
            if (!keep) break;
            const std::span<const Code> subject = subjects_.subject(idx);
            const StripedResult r16 =
                aligner_->score_i16(subject, scratch, /*trusted=*/true);
            Score s = r16.score;
            if (r16.overflow) {
                s = aligner_->rescore_i32(subject, scratch);
                ++t.settled32;
            } else {
                ++t.settled16;
            }
            keep = emit(idx, subjects_.lengths[idx], s);
        }
        // Emit contract: unless a callback cancelled the scan, every
        // subject this worker claimed either settles exactly once — in
        // stage 2 for the in-range scores, in a wide rescore for the
        // deferred and hot rest — or is reported pruned exactly once.
        SWH_DCHECK(!keep || t.settled8 + t.settled16 + t.settled32 ==
                                t.subjects_interseq + t.subjects_striped +
                                    t.subjects_hot,
                   "emit contract: one settled score per claimed subject");
        merge(t);
        return keep;
    }

    /// Exhaustive-caller convenience: no pruning observer. With the
    /// prefilter armed the pruned subjects are still skipped — they are
    /// just not reported.
    template <class EmitFn>
    SWH_HOT_PATH bool run_worker(ScanScratch& scratch, EmitFn&& emit) {
        return run_worker(scratch, emit,
                          [](std::uint32_t, std::uint32_t) { return true; });
    }

    /// Rewinds the shared cursor for another scan of the same subjects.
    void reset() { next_.store(0, std::memory_order_relaxed); }

    std::size_t chunk() const { return chunk_; }
    std::size_t count() const { return subjects_.count; }
    const StripedAligner& aligner() const { return *aligner_; }
    bool cohort_mode() const { return cohorts_.count != 0; }

    /// True when the stage-1 prefilter can run: a threshold feed is
    /// attached and the scan is in cohort mode (the ungapped kernels
    /// share the cohort geometry). Whether it actually prunes depends
    /// on the threshold value at each cohort.
    bool prefilter_armed() const {
        return threshold_ != nullptr && cohort_mode();
    }

    /// Merged counters of every finished run_worker call.
    Stats stats() const;

private:
    static std::uint64_t lane_mask(std::size_t lanes) {
        return lanes >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << lanes) - 1;
    }

    /// Width of the stage-3 i16 pass over a cliff group of `lanes`
    /// lanes: the narrowest width, no wider than the aligner's (so one
    /// the aligner's tier has), that holds the group in one i16 vector
    /// (SSE2 up to 8 lanes, AVX2 up to 16); the aligner's own width
    /// otherwise, which holds every group cliff_groups forms. Every
    /// width runs the same exact dataflow per lane, so only the
    /// throughput depends on the choice.
    simd::IsaLevel drain_isa(std::size_t lanes) const;

    std::uint32_t slot_index(std::size_t slot) const {
        return subjects_.order != nullptr ? subjects_.order[slot]
                                          : static_cast<std::uint32_t>(slot);
    }

    /// Original database index of lane l of cohort d.
    std::uint32_t member_index(const CohortDesc& d, std::uint32_t l) const {
        return slot_index(d.first_slot + static_cast<std::size_t>(l));
    }

    /// Legacy claim unit: chunks of scan-order subjects, striped u8.
    template <class EmitFn>
    SWH_HOT_PATH bool claim_subjects(ScanScratch& scratch, EmitFn&& emit,
                                     std::vector<std::uint32_t>& overflow,
                                     Stats& t) {
        bool keep = true;
        const std::size_t n = subjects_.count;
        while (keep) {
            const std::size_t begin =
                next_.fetch_add(chunk_, std::memory_order_relaxed);
            if (begin >= n) break;
            const std::size_t end = std::min(begin + chunk_, n);
            for (std::size_t slot = begin; slot < end && keep; ++slot) {
                keep = score_striped(slot_index(slot), scratch, emit, overflow,
                                     t);
            }
        }
        return keep;
    }

    /// Stage-1 probe of a cohort claimed before the threshold exists:
    /// sweeps only the first filter tile, on every route, into
    /// p.partial. Returns the hot lanes — those of `used` whose bound
    /// clipped u8 there — and leaves the rest in p.lanes. Random-
    /// background tile bounds stay inside u8 (DESIGN.md "Tile-sum
    /// bound"), so a clipped tile is the homolog signal; which lanes
    /// are hot only picks their kernel, never the top-k.
    SWH_HOT_PATH std::uint64_t probe_cohort(const CohortDesc& d,
                                            std::uint64_t used,
                                            ParkedCohort& p,
                                            ScanScratch& scratch, Stats& t) {
        ++t.cohorts_filtered;
        ++t.filter_tiles;
        const InterseqProfile& profile = *aligner_->interseq();
        const std::uint64_t hot =
            used & sw_ungapped_interseq_u8(
                       profile, cohorts_.arena + d.offset, d.columns,
                       aligner_->gap(), aligner_->isa(), scratch, p.partial,
                       0, filter_tile_rows(profile.query_len));
        t.subjects_hot += static_cast<std::uint64_t>(std::popcount(hot));
        p.lanes = used & ~hot;
        for (std::uint64_t m = p.lanes; m != 0; m &= m - 1) {
            p.best = std::max(p.best, p.partial[std::countr_zero(m)]);
        }
        return hot;
    }

    /// Stage-1 decision over the lanes `lanes` of cohort d: returns
    /// their survivor mask. The query is bounded in the prefilter's own
    /// filter_tile_count() row tiles from row `row_begin` on, on top of
    /// the partial sums in `bound` (see sw_ungapped_tiled_u8), and the
    /// per-lane tile bounds summed (sound — see align/ungapped.hpp);
    /// each tile's two DP rows stay L1-resident, and its height keeps
    /// random-background bounds inside u8 even on the longest subjects.
    /// The sweep stops once the query-row bound and the composition cap
    /// have decided every lane. A lane is cleared only when its bound
    /// provably falls strictly below `tau`; a lane that saturated a
    /// tile while undecided survives, and is counted in
    /// `subjects_saturated` when its clipped bound alone would have
    /// pruned it.
    SWH_HOT_PATH std::uint64_t filter_cohort(const CohortDesc& d,
                                             std::uint64_t lanes, Score tau,
                                             std::size_t row_begin,
                                             Score* bound,
                                             ScanScratch& scratch, Stats& t) {
        const FilterSweep sweep = sw_ungapped_tiled_u8(
            *aligner_->interseq(), cohorts_.arena + d.offset, d.columns,
            aligner_->gap(), aligner_->isa(), scratch, tau, bound, row_begin,
            lanes);
        t.filter_tiles += sweep.tiles;
        t.filter_tiles_skipped += sweep.tiles_skipped;
        std::uint64_t above = 0;
        for (std::uint32_t l = 0; l < d.lanes_used; ++l) {
            if (bound[l] >= tau) above |= std::uint64_t{1} << l;
        }
        t.subjects_saturated += static_cast<std::uint64_t>(
            std::popcount(sweep.saturated & ~above & lanes));
        return (above | sweep.saturated) & lanes;
    }

    /// Cohort claim unit: whole cohorts of the interleaved layout, in
    /// layout order. Stage 1 prunes lanes when the threshold feed is
    /// live, stage 2 exact-scores the survivors on the cohort's route —
    /// inter-sequence for well-filled cohorts, per-subject striped for
    /// the low-fill rest. Until the threshold exists a claimed cohort is
    /// only probed (probe_cohort): its hot lanes join the deferred batch,
    /// which is held until this worker's settled hits plus the held
    /// lanes reach k — a drain of fewer cannot create the threshold, so
    /// a family split across cohorts settles in one drain, not one per
    /// cohort — and its other lanes are resumed from the second tile if
    /// the threshold exists by then, or parked. When the claims run out
    /// the held lanes drain whatever their count. Parked cohorts settle
    /// after that, largest first-tile bound first: resumed once a
    /// threshold exists, exact-scored while none does — on a no-hit
    /// query the first one seeds it.
    template <class EmitFn, class PrunedFn>
    SWH_HOT_PATH bool claim_cohorts(ScanScratch& scratch, EmitFn&& emit,
                                    PrunedFn&& pruned,
                                    std::vector<std::uint32_t>& overflow,
                                    Stats& t) {
        bool keep = true;
        const std::size_t n = cohorts_.count;
        const auto w = static_cast<std::size_t>(cohorts_.lanes);
        const std::size_t claim = std::max<std::size_t>(1, chunk_ / w);
        const std::size_t qlen = aligner_->interseq()->query_len;
        InterseqColumnState& colstate = scratch.column_state();
        // Dense scratch of the stage-3 drain, grown to the largest group.
        std::vector<Code>& repack = scratch.funnel().repack;
        // Probed cohorts waiting for a threshold; stays empty on
        // exhaustive scans and once the threshold exists.
        std::vector<ParkedCohort>& parked = scratch.funnel().parked;
        parked.clear();

        // Reports the lanes of `lanes` outside `survive` pruned and
        // exact-scores the survivors on cohort c's route.
        const auto settle = [&](std::size_t c, std::uint64_t lanes,
                                std::uint64_t survive) {
            const CohortDesc& d = cohorts_.cohorts[c];
            bool k = true;
            for (std::uint64_t m = lanes & ~survive; m != 0 && k;
                 m &= m - 1) {
                const std::uint32_t idx = member_index(
                    d, static_cast<std::uint32_t>(std::countr_zero(m)));
                ++t.subjects_pruned;
                k = pruned(idx, subjects_.lengths[idx]);
            }
            if (!k || survive == 0) return k;
            if (interseq_[c] != 0) {
                return score_interseq(d, survive, scratch, colstate, emit,
                                      overflow, t);
            }
            // Below the fill bar: a full-width pass would spend most of
            // its columns x W cells on pad.
            ++t.cohorts_striped;
            for (std::uint64_t m = survive; m != 0 && k; m &= m - 1) {
                k = score_striped(
                    member_index(d, static_cast<std::uint32_t>(
                                        std::countr_zero(m))),
                    scratch, emit, overflow, t);
            }
            return k;
        };
        // Decides the lanes a probe left: resumes the sweep at the
        // second tile once a threshold exists, exact-scores them
        // otherwise (their unswept tiles count as skipped).
        const auto finish = [&](const ParkedCohort& p) {
            const Score tau = threshold_->load(std::memory_order_relaxed);
            std::uint64_t survive = p.lanes;
            if (tau > 0) {
                Score bound[64];
                std::copy_n(p.partial, w, bound);
                survive = filter_cohort(cohorts_.cohorts[p.cohort], p.lanes,
                                        tau, filter_tile_rows(qlen), bound,
                                        scratch, t);
            } else {
                t.filter_tiles_skipped += filter_tile_count(qlen) - 1;
            }
            return settle(p.cohort, p.lanes, survive);
        };
        // Settles the deferred batch — u8-overflowed and hot lanes — in
        // one drain pass.
        const auto drain = [&] {
            return overflow.empty() ||
                   drain_overflow(overflow, scratch, colstate, repack, emit,
                                  t);
        };
        // Claim-time drain of an armed scan: the deferred lanes settle
        // now instead of at end of run — they ARE the likely top scorers,
        // and the threshold can only rise once their exact scores reach
        // the caller. Before it exists they are held until they can
        // create it: this worker's collector needs k hits.
        const auto flush = [&] {
            if (threshold_ == nullptr) return true;
            const std::uint64_t settled =
                t.settled8 + t.settled16 + t.settled32;
            if (threshold_->load(std::memory_order_relaxed) <= 0 &&
                settled + overflow.size() < top_k_) {
                return true;
            }
            return drain();
        };

        while (keep) {
            const std::size_t begin =
                next_.fetch_add(claim, std::memory_order_relaxed);
            if (begin >= n) break;
            const std::size_t end = std::min(begin + claim, n);
            for (std::size_t c = begin; c < end && keep; ++c) {
                const CohortDesc& d = cohorts_.cohorts[c];
                const std::uint64_t used = lane_mask(d.lanes_used);
                if (threshold_ == nullptr) {
                    keep = settle(c, used, used);
                    continue;
                }
                // Re-read per cohort: the threshold rises as exact hits
                // accumulate, so late cohorts prune harder. tau <= 0
                // (including TopK::kNoThreshold) cannot prune — chain
                // bounds are non-negative.
                const Score tau = threshold_->load(std::memory_order_relaxed);
                if (tau > 0) {
                    ++t.cohorts_filtered;
                    Score bound[64];
                    keep = settle(c, used,
                                  filter_cohort(d, used, tau, 0, bound,
                                                scratch, t));
                    continue;
                }
                ParkedCohort p;
                p.cohort = static_cast<std::uint32_t>(c);
                const std::uint64_t hot = probe_cohort(d, used, p, scratch, t);
                if (hot != 0) {
                    for (std::uint64_t m = hot; m != 0; m &= m - 1) {
                        // NOLINTNEXTLINE(swh-no-alloc-in-hot-path):
                        // held batch, under k plus one claim's lanes.
                        overflow.push_back(member_index(
                            d,
                            static_cast<std::uint32_t>(std::countr_zero(m))));
                    }
                    keep = flush();
                }
                if (!keep) break;
                if (p.lanes == 0) {
                    t.filter_tiles_skipped += filter_tile_count(qlen) - 1;
                } else if (threshold_->load(std::memory_order_relaxed) > 0) {
                    keep = finish(p);
                } else {
                    ++t.cohorts_parked;
                    // NOLINTNEXTLINE(swh-no-alloc-in-hot-path): one
                    // entry per cohort claimed before tau existed.
                    parked.push_back(p);
                }
            }
            if (keep) keep = flush();
        }
        // The claims ran out: the held lanes settle now, however few.
        // Exhaustive scans arrive here with the whole run's deferred
        // batch; the batched drain settles it, so run_worker's serial
        // fallback only ever serves the packed claim_subjects path.
        if (keep) keep = drain();
        // Parked walk: the cohorts whose first tile bounds highest are
        // the likeliest to raise the threshold, or on a no-hit query to
        // seed it; any order yields the same top-k.
        std::sort(parked.begin(), parked.end(),
                  [](const ParkedCohort& a, const ParkedCohort& b) {
                      return a.best != b.best ? a.best > b.best
                                              : a.cohort < b.cohort;
                  });
        for (std::size_t i = 0; i < parked.size() && keep; ++i) {
            keep = finish(parked[i]);
            if (keep) keep = drain();
        }
        return keep;
    }

    /// Exact stage of inter-sequence cohort d: its columns scored by
    /// the (query-tiled) u8 kernel, then the lanes in `lanes` settled;
    /// overflowed lanes join `overflow` for the wide-rescore stages.
    template <class EmitFn>
    SWH_HOT_PATH bool score_interseq(const CohortDesc& d, std::uint64_t lanes,
                                     ScanScratch& scratch,
                                     InterseqColumnState& colstate,
                                     EmitFn&& emit,
                                     std::vector<std::uint32_t>& overflow,
                                     Stats& t) {
        ++t.cohorts_interseq;
        std::uint8_t lane_best[64];
        const std::uint64_t ovf = sw_interseq_u8_tiled(
            *aligner_->interseq(), cohorts_.arena + d.offset, d.columns,
            aligner_->gap(), aligner_->isa(), scratch, colstate, lane_best);
        bool keep = true;
        for (std::uint64_t m = lanes; m != 0 && keep; m &= m - 1) {
            const auto l = static_cast<std::uint32_t>(std::countr_zero(m));
            const std::uint32_t idx = member_index(d, l);
            ++t.subjects_interseq;
            if ((ovf >> l) & 1) {
                // NOLINTNEXTLINE(swh-no-alloc-in-hot-path): deferred
                // batch, bounded by the claim size.
                overflow.push_back(idx);
                continue;
            }
            ++t.settled8;
            keep = emit(idx, subjects_.lengths[idx],
                        static_cast<Score>(lane_best[l]));
        }
        return keep;
    }

    /// Sorts `batch` (original indices) length-descending and walks it
    /// in cliff groups: greedy runs of at most lanes_i16 subjects (one
    /// i16 vector of the aligner's width) whose real residues fill
    /// kInterseqMinFillPct of the group's columns x members cells, so a
    /// straggler long subject never forces pad columns onto a run of
    /// short ones.
    /// Calls group(first, count) per group — `first` points into
    /// `batch` — until it returns false; returns false iff it did.
    template <class GroupFn>
    SWH_HOT_PATH bool cliff_groups(std::vector<std::uint32_t>& batch,
                                   GroupFn&& group) const {
        const auto w = static_cast<std::size_t>(lanes_i16(aligner_->isa()));
        std::sort(batch.begin(), batch.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      const std::uint32_t la = subjects_.lengths[a];
                      const std::uint32_t lb = subjects_.lengths[b];
                      return la != lb ? la > lb : a < b;
                  });
        for (std::size_t at = 0; at < batch.size();) {
            const std::uint64_t columns = subjects_.lengths[batch[at]];
            std::uint64_t residues = columns;
            std::size_t end = at + 1;
            while (end < batch.size() && end - at < w) {
                const std::uint64_t next =
                    residues + subjects_.lengths[batch[end]];
                if (next * 100 <
                    columns * (end - at + 1) * kInterseqMinFillPct) {
                    break;
                }
                residues = next;
                ++end;
            }
            if (!group(batch.data() + at, end - at)) return false;
            at = end;
        }
        return true;
    }

    /// Stage-3 drain of this worker's deferred u8-overflow and hot
    /// lanes: each cliff group is packed densely and settled by ONE i16
    /// inter-sequence pass, at drain_isa(count) — the narrowest width
    /// whose i16 vector holds the group, so a homolog family of a few
    /// lanes fills its vectors instead of padding a full-width pass.
    /// Each lane's best starts at its kDrainSeedBand banded score (a
    /// real alignment's, so at most the exact score), and the pass skips
    /// the tile columns no path through which can beat it. Lanes the i16
    /// pass itself flags as saturated go straight to the exact int32
    /// rescore (a striped i16 attempt is already proven futile). Leaves
    /// `overflow` empty.
    template <class EmitFn>
    SWH_HOT_PATH bool drain_overflow(std::vector<std::uint32_t>& overflow,
                                     ScanScratch& scratch,
                                     InterseqColumnState& colstate,
                                     std::vector<Code>& repack, EmitFn&& emit,
                                     Stats& t) {
        const bool keep = cliff_groups(
            overflow, [&](const std::uint32_t* batch, std::size_t count) {
                ++t.escalations16;
                const simd::IsaLevel isa = drain_isa(count);
                const auto w = static_cast<std::size_t>(lanes_u8(isa));
                // cliff_groups hands the group over longest first.
                const std::uint32_t columns = subjects_.lengths[batch[0]];
                // NOLINTNEXTLINE(swh-no-alloc-in-hot-path): repack scratch
                // is caller-retained; it grows to the largest group once.
                repack.resize(std::size_t{columns} * w);
                interleave_subjects(subjects_, batch, count, w, repack);
                std::int16_t seed[64] = {};
                for (std::size_t i = 0; i < count; ++i) {
                    Score h[2 * kDrainSeedBand + 1];
                    Score f[2 * kDrainSeedBand + 1];
                    seed[i] = static_cast<std::int16_t>(std::min<Score>(
                        sw_score_banded(aligner_->query(),
                                        subjects_.subject(batch[i]),
                                        aligner_->matrix(), aligner_->gap(),
                                        kDrainSeedBand, h, f),
                        32767));
                }
                std::int16_t lane_best[64];
                const I16Pass pass = sw_interseq_i16_tiled(
                    *aligner_->interseq(), repack.data(), columns,
                    aligner_->gap(), isa, scratch, colstate, seed, lane_best);
                t.drain_columns += pass.columns;
                t.drain_columns_skipped += pass.columns_skipped;
                const std::uint64_t ovf = pass.overflow;
                bool k = true;
                for (std::size_t i = 0; i < count && k; ++i) {
                    const std::uint32_t idx = batch[i];
                    Score s;
                    if ((ovf >> i) & 1) {
                        s = aligner_->rescore_i32(subjects_.subject(idx),
                                                  scratch);
                        ++t.settled32;
                    } else {
                        s = static_cast<Score>(lane_best[i]);
                        ++t.settled16;
                    }
                    k = emit(idx, subjects_.lengths[idx], s);
                }
                return k;
            });
        // On cancellation the worker is aborting anyway; clearing keeps
        // the run_worker fallback from double-settling on the keep path.
        overflow.clear();
        return keep;
    }

    template <class EmitFn>
    SWH_HOT_PATH bool score_striped(std::uint32_t idx, ScanScratch& scratch,
                                    EmitFn&& emit,
                                    std::vector<std::uint32_t>& overflow,
                                    Stats& t) {
        ++t.subjects_striped;
        const StripedResult r =
            aligner_->score_u8(subjects_.subject(idx), scratch,
                               /*trusted=*/true);
        if (r.overflow) {
            // NOLINTNEXTLINE(swh-no-alloc-in-hot-path): deferred batch,
            // bounded by the claim size.
            overflow.push_back(idx);
            return true;
        }
        ++t.settled8;
        return emit(idx, subjects_.lengths[idx], r.score);
    }

    void merge(const Stats& s);

    const StripedAligner* const aligner_;
    const PackedSubjects subjects_;
    const std::size_t chunk_;
    const InterleavedCohorts cohorts_;
    /// Pruning threshold feed (null = prefilter unarmed). Owned by the
    /// caller; its value must only ever increase.
    const std::atomic<Score>* const threshold_;
    /// Hits a worker's collector needs before the threshold exists.
    const std::size_t top_k_;
    /// Per-cohort exact-stage route, precomputed at construction from
    /// cohort fill: 1 = inter-sequence, 0 = striped per subject.
    /// Written only by the constructor.
    SWH_NOT_GUARDED std::vector<std::uint8_t> interseq_;
    std::atomic<std::size_t> next_{0};
    mutable Mutex stats_mu_;
    Stats stats_ SWH_GUARDED_BY(stats_mu_);
};

}  // namespace swh::align
