#pragma once

#include <memory>
#include <string_view>

#include "align/score_matrix.hpp"
#include "align/sequence.hpp"
#include "core/results.hpp"
#include "core/types.hpp"
#include "db/database.hpp"
#include "simd/arch.hpp"

namespace swh::obs {
class TraceLane;
class MetricsRegistry;
}  // namespace swh::obs

namespace swh::engines {

/// Observer a slave passes into an engine run: receives cell-count
/// progress (for the master's periodic rate notifications) and exposes a
/// cooperative cancellation flag (checked between database sequences, so
/// a cancelled replica stops within one sequence comparison).
class ExecutionObserver {
public:
    virtual ~ExecutionObserver() = default;

    /// Called periodically with the cells processed since the last call.
    virtual void on_cells(std::uint64_t cells_delta) { (void)cells_delta; }

    /// Engines poll this between database sequences.
    virtual bool cancelled() const { return false; }

    /// Trace lane of the slave thread driving this execution, so the
    /// engine can emit kernel spans onto the same timeline row as the
    /// slave's task spans. Null (the default) = tracing off. Only the
    /// thread that called execute() may emit on it; wrapper observers
    /// (e.g. ThrottledEngine's pacing) must forward it downstream.
    virtual obs::TraceLane* trace_lane() const { return nullptr; }
};

/// Shared configuration for all compute engines.
struct EngineConfig {
    const align::ScoreMatrix* matrix = nullptr;
    align::GapPenalty gap;
    std::size_t top_k = 10;  ///< hits kept per task
    simd::IsaLevel isa = simd::IsaLevel::Scalar;
    /// Progress granularity: observer notified roughly every this many
    /// cells (engines round to whole database sequences).
    std::uint64_t progress_grain = 50'000'000;
    /// Allow the inter-sequence kernels (lane-interleaved cohort scan)
    /// where the matrix and query admit them; the scanner still falls
    /// back to the striped kernels per cohort. Off forces striped-only.
    bool interseq = true;
    /// Arm the ungapped prefilter stage of the scan funnel (cohort mode
    /// only): subjects whose gap-slack score bound provably falls below
    /// the running k-th best exact score skip exact alignment. The
    /// final top-k is bit-identical either way — this knob only trades
    /// the prefilter sweep's cost against the pruned exact work.
    bool prefilter = true;
    /// Optional metrics sink (engines fold in per-task counters like the
    /// 8->16->32-bit escalation counts). Non-owning; null = off.
    obs::MetricsRegistry* metrics = nullptr;
};

/// A processing element's compute backend: runs one task (query vs whole
/// database) to completion. Implementations must be safe to call from
/// the one slave thread that owns them; distinct engine instances may
/// run concurrently. An engine may keep scratch memory across calls
/// (CpuEngine keeps its workers' scan buffers warm), but no result may
/// depend on it: every execute() returns what a fresh engine would,
/// whatever ran before — another query, another database, or a call
/// cancelled mid-scan.
class ComputeEngine {
public:
    virtual ~ComputeEngine() = default;

    virtual std::string_view name() const = 0;
    virtual core::PeKind kind() const = 0;

    /// Executes the comparison and returns the merged top-k hits. If the
    /// observer reports cancellation, returns a partial result with
    /// `cells` reflecting the work actually done (the caller discards
    /// it). A null observer means "no progress reporting, never
    /// cancelled".
    virtual core::TaskResult execute(const align::Sequence& query,
                                     std::uint32_t query_index,
                                     core::TaskId task,
                                     const db::Database& database,
                                     ExecutionObserver* observer) = 0;
};

}  // namespace swh::engines
