#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/policy.hpp"
#include "core/scheduler.hpp"
#include "obs/trace.hpp"
#include "sim/platform.hpp"

namespace swh::sim {

/// A complete simulated experiment: one database (as a residue count),
/// one query workload (as lengths), a platform, and a scheduling
/// configuration. The simulator drives the *same* runtime::MasterProtocol
/// (and so the same core::SchedulerCore) as the threaded and socket
/// runtimes, in deterministic virtual time: its PEs send the runtime's
/// messages and act on the master's replies.
struct SimConfig {
    core::SchedulerOptions sched;
    /// Stateful policies can't be shared between runs, so a factory.
    std::function<std::unique_ptr<core::AllocationPolicy>()> policy =
        core::make_pss;
    double notify_period_s = 0.5;
    /// Master reply latency: every Assign, NoWorkYet and Shutdown reaches
    /// its PE this many (virtual) seconds after the master sent it.
    /// Models the per-interaction network/master overhead that makes
    /// pure SS expensive (paper SS IV-A.1); 0 = free communication.
    double assign_latency_s = 0.0;
    std::uint64_t db_residues = 0;
    std::vector<std::size_t> query_lengths;
    std::vector<PeModelSpec> pes;
    std::vector<LoadEvent> load_events;
    std::vector<LeaveEvent> leave_events;
    std::vector<JoinEvent> join_events;
    /// Hard stop for misconfigured scenarios (virtual seconds).
    double max_time = 1e9;
    /// Optional trace recorder, as in RuntimeOptions::trace: when set,
    /// simulate() opens a "master" lane on it and records the
    /// scheduler's decisions there through obs::SchedTracer, stamped in
    /// virtual time, so a DES run yields the same balance evidence and
    /// PSS weight trajectories as a traced real one. The lane grows
    /// (obs::Overflow::Grow), so no run outgrows it. Non-owning; must
    /// outlive simulate().
    obs::TraceRecorder* trace = nullptr;
};

/// One task execution on one PE, for Gantt rendering (paper Fig. 5).
struct TaskSpan {
    core::TaskId task = 0;
    std::size_t pe = 0;
    double start = 0.0;
    double end = 0.0;
    bool accepted = false;    ///< first finisher
    bool aborted = false;     ///< stopped by Shutdown / node left
};

/// Delivered-rate sample at a notification point (paper Figs. 7-8).
struct RateSample {
    std::size_t pe = 0;
    double time = 0.0;
    double gcups = 0.0;
};

struct PeReport {
    std::string label;
    core::PeKind kind = core::PeKind::SseCore;
    std::size_t results_accepted = 0;
    std::size_t results_discarded = 0;
    std::size_t tasks_aborted = 0;
    double busy_seconds = 0.0;
    std::uint64_t cells = 0;
};

struct SimReport {
    /// Virtual time at which the last task reached Finished — the
    /// application's completion time (results are all merged then).
    double makespan = 0.0;
    /// Virtual time at which every PE went idle: a losing replica runs
    /// until the master's Shutdown reaches it, assign_latency_s after
    /// the makespan.
    double all_idle_time = 0.0;
    std::uint64_t accepted_cells = 0;
    std::uint64_t computed_cells = 0;
    double gcups = 0.0;  ///< accepted_cells / makespan
    std::size_t replicas_issued = 0;
    std::size_t completions_discarded = 0;
    std::vector<PeReport> pes;
    std::vector<TaskSpan> spans;
    std::vector<RateSample> rates;
};

SimReport simulate(const SimConfig& config);

/// Renders the spans as an ASCII Gantt chart (one row per PE), like the
/// paper's Fig. 5. `time_step` is the width of one character cell.
std::string render_gantt(const SimReport& report,
                         const std::vector<PeModelSpec>& pes,
                         double time_step);

/// Converts a simulator report into an obs::Trace on virtual
/// timestamps: the lanes `recorded` during the run (the drained
/// SimConfig::trace recorder, whose "master" lane carries the
/// scheduler's decisions), then one lane per PE carrying its task
/// spans plus Progress instants from the rate samples — the exact
/// Trace shape a drained TraceRecorder produces, so a simulated run
/// feeds the same exporters *and* the same obs::analyze_balance as a
/// traced real run.
obs::Trace to_trace(const SimReport& report,
                    const std::vector<PeModelSpec>& pes,
                    obs::Trace recorded = {});

}  // namespace swh::sim
