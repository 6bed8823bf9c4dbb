#pragma once

// Post-run workload-balance auditing (paper §IV-A.2's effectiveness
// check): given a drained obs::Trace — from either runtime's
// TraceRecorder or a DES run's SimReport::trace — decompose
// each PE's time into busy/comm/idle, attribute cells/s, compute the
// imbalance ratio and the ideal-balance makespan lower bound, identify
// the straggler, and walk the critical chain of task spans that bounds
// the makespan. Pure analysis: deterministic for a deterministic trace
// (the DES determinism test relies on byte-identical to_text()).
//
// Definitions (see DESIGN.md "Balance auditing & performance
// attribution"):
//   busy   = union of the lane's top-level task spans
//   comm   = per span, the dispatch gap start − max(assign_t, prev_end)
//            when a TaskAssigned/ReplicaIssued event for (pe, task) is
//            in the trace (clamped to the actual inter-span gap)
//   idle   = horizon − busy − comm
//   imbalance ratio    = max(busy) / mean(busy)
//   ideal makespan     = Σ busy / n_pes  (perfect-divisibility bound)
//   efficiency         = Σ busy / (n_pes × horizon)
//   critical path      = greedy backward chain: from the span with the
//            latest end, repeatedly step to the latest-ending span that
//            finished before the current one started, while the
//            scheduling gap stays within gap_tolerance_s.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "obs/trace.hpp"

namespace swh::obs {

/// Per-PE attribution row. `pe` comes from the lane's span events;
/// lanes without task spans (master) produce no row.
struct BalancePe {
    std::string label;
    core::PeId pe = core::kInvalidPe;
    double busy_s = 0.0;
    double comm_s = 0.0;
    double idle_s = 0.0;
    std::size_t tasks_accepted = 0;   ///< spans ended with outcome 0
    std::size_t tasks_aborted = 0;    ///< spans ended with outcome != 0
    std::size_t replicas_received = 0;
    double cells = 0.0;               ///< attributed work (see options)
    double cells_per_second = 0.0;    ///< cells / busy_s
    double first_start_s = 0.0;       ///< first span begin
    double last_end_s = 0.0;          ///< last span end
};

/// One link of the critical chain, latest first reversed to
/// chronological order. `wait_s` is the scheduling gap bridged from the
/// previous step's end (0 for the chain's first step).
struct CriticalStep {
    core::PeId pe = core::kInvalidPe;
    std::size_t lane = 0;
    core::TaskId task = kNoTask;
    double start_s = 0.0;
    double end_s = 0.0;
    double wait_s = 0.0;
};

struct BalanceOptions {
    /// Largest scheduling gap (seconds) the critical chain may bridge;
    /// a larger gap means the next task was arrival-bound, not
    /// predecessor-bound, and the chain stops. <= 0 ⇒ auto: 5% of the
    /// horizon.
    double gap_tolerance_s = 0.0;
    /// Cell attribution per lane label (SlaveReport::cells_computed /
    /// sim PeReport::cells). Lanes not listed are attributed 0 cells.
    std::vector<std::pair<std::string, double>> cells_by_label;
    /// Analysis horizon override; <= 0 ⇒ the latest event timestamp.
    double horizon_s = 0.0;
};

struct BalanceReport {
    double horizon_s = 0.0;
    std::size_t pe_count = 0;
    double total_busy_s = 0.0;
    double total_comm_s = 0.0;
    double total_idle_s = 0.0;
    double ideal_makespan_s = 0.0;
    double imbalance_ratio = 0.0;  ///< max busy / mean busy (1 = perfect)
    double efficiency = 0.0;       ///< mean busy / horizon
    /// Index into `pes` of the PE whose last completion lands latest —
    /// the PE that ends the run. kNoStraggler when there are no spans.
    static constexpr std::size_t kNoStraggler = ~std::size_t{0};
    std::size_t straggler = kNoStraggler;
    /// How much later the straggler finishes than the runner-up (the
    /// makespan reduction a perfect last-task placement could buy).
    double straggler_tail_s = 0.0;
    std::vector<BalancePe> pes;
    std::vector<CriticalStep> critical_path;  ///< chronological
    double critical_path_s = 0.0;   ///< chain last end − chain first start
    double critical_coverage = 0.0; ///< critical_path_s / horizon
    double gap_tolerance_s = 0.0;   ///< the tolerance actually used
    std::size_t events_analyzed = 0;
    std::uint64_t dropped_events = 0;

    /// Human-readable table (deterministic byte-for-byte for a
    /// deterministic trace).
    std::string to_text() const;
    std::string to_json() const;
};

/// Runs the audit over every lane but the channel lanes
/// (is_channel_lane), which carry neither task spans nor scheduler
/// decisions; `events_analyzed` and `dropped_events` count the lanes
/// read. Tolerates empty traces (all-zero report).
BalanceReport analyze_balance(const Trace& trace,
                              const BalanceOptions& options = {});

/// Throws IoError naming `obs.trace.dropped` and the count when a lane
/// analyze_balance reads lost events to ring overflow: a truncated lane
/// would silently skew the report. An overflowing channel lane does
/// not refuse the audit.
void require_audit_complete(const Trace& trace);

}  // namespace swh::obs
