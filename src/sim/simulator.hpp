#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/policy.hpp"
#include "core/scheduler.hpp"
#include "obs/balance.hpp"
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
    /// The run as a traced real run records it, stamped in virtual
    /// time: the "master" lane (the scheduler's decisions through
    /// obs::SchedTracer, every PE rate sample included), then one lane
    /// per PE, joiners included, in `pes` order and labelled like it.
    /// A PE lane carries the "task" spans run_slave_loop writes:
    /// outcome 1 when the task was aborted. Every lane grows
    /// (obs::Overflow::Grow), so none drops an event.
    obs::Trace trace;
};

SimReport simulate(const SimConfig& config);

/// The options obs::analyze_balance reads `report.trace` with: the
/// horizon at all_idle_time, and each PE's exact computed cells.
obs::BalanceOptions balance_options(const SimReport& report);

}  // namespace swh::sim
