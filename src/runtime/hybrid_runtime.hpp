#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/results.hpp"
#include "core/scheduler.hpp"
#include "db/database.hpp"
#include "engines/engine.hpp"
#include "net/channel.hpp"
#include "obs/metrics.hpp"

namespace swh::obs {
class TraceRecorder;
}  // namespace swh::obs

namespace swh::runtime {

/// One slave PE of the hybrid platform: an engine plus optional dynamic-
/// membership behaviour (the paper's future-work join/leave extension).
struct SlaveSpec {
    std::string label;
    std::unique_ptr<engines::ComputeEngine> engine;
    /// Seconds after run start before this slave registers (late join).
    double join_delay_s = 0.0;
    /// After this many accepted+discarded completions the slave
    /// deregisters, abandoning any queued tasks (0 = stays to the end).
    std::size_t leave_after_tasks = 0;
};

struct RuntimeOptions {
    core::SchedulerOptions sched;
    /// Progress-notification cadence the slaves aim for.
    double notify_period_s = 0.2;
    std::size_t top_k = 10;
    /// Simulated link latency applied to every message.
    double channel_delay_s = 0.0;
    /// Optional trace recorder: when set, the run emits per-slave task
    /// spans, scheduler events, and channel depth samples into it.
    /// Non-owning; the recorder must outlive run().
    obs::TraceRecorder* trace = nullptr;
    /// Optional metrics sink (task-duration histograms, scheduler
    /// counters, channel depth). Non-owning; null = off.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional extra scheduler-decision observer, fanned out
    /// alongside the built-in SchedTracer. Callbacks arrive on the
    /// master thread with the scheduler mutex held — the observer must
    /// not re-enter the scheduler. Non-owning; must outlive run().
    /// RemoteMaster does not forward it (see RemoteMasterOptions).
    core::SchedObserver* sched_observer = nullptr;

    // ---- Fault tolerance (ISSUE 5) --------------------------------------

    /// Declare a slave dead after this long without any message from it,
    /// deregister it, and requeue its tasks. 0 disables liveness — the
    /// original immortal-slave assumption, under which a slave dying
    /// without MsgDeregister deadlocks the master.
    double liveness_timeout_s = 0.0;
    /// How often an idle-blocked slave beacons MsgHeartbeat (busy slaves
    /// piggyback liveness on MsgProgress). Only used when liveness is on;
    /// keep it well below liveness_timeout_s.
    double heartbeat_period_s = 0.05;
    /// Engine-failure retries per task before it is abandoned and
    /// surfaced in RunReport::failed_tasks (the run never aborts).
    std::size_t max_task_retries = 3;
    /// Exponential backoff between retries of one task: first retry
    /// waits retry_backoff_s, doubling up to retry_backoff_max_s.
    double retry_backoff_s = 0.01;
    double retry_backoff_max_s = 1.0;
    /// Fault injection on the slave->master link (message drops and/or
    /// delivery stall). Drops require liveness_timeout_s > 0: recovery
    /// from a lost Register/WorkRequest/TaskDone is the liveness and
    /// replication machinery's job.
    net::ChannelFaults master_link_faults;
    /// Extra delivery stall on every master->slave link. Drops are never
    /// injected in that direction — losing Assign/Shutdown control
    /// messages would break termination, not test fault tolerance.
    double slave_link_stall_s = 0.0;
};

struct SlaveReport {
    std::string label;
    core::PeKind kind = core::PeKind::SseCore;
    std::size_t results_accepted = 0;
    std::size_t results_discarded = 0;  ///< lost replica races
    std::size_t tasks_cancelled = 0;    ///< abandoned mid-run
    std::uint64_t cells_computed = 0;
    /// Cells of this slave's completions the master accepted (first
    /// finisher of the task) vs discarded (lost replica races, including
    /// completions that crossed the end-of-run Shutdown).
    std::uint64_t cells_accepted = 0;
    std::uint64_t cells_discarded = 0;
    bool left_early = false;
    /// Engine exceptions this slave contained and reported as
    /// MsgTaskFailed (the thread survived them all).
    std::size_t engine_failures = 0;
    /// The master declared this slave dead after liveness_timeout_s of
    /// silence and requeued its tasks.
    bool presumed_dead = false;
    /// The slave thread died mid-task without deregistering (simulated
    /// crash) — the failure mode only liveness timeouts can recover.
    bool crashed = false;
};

/// Accepted/discarded cell totals aggregated over all slaves of one
/// PE kind — the paper's per-device-class useful-vs-wasted work split.
struct KindCells {
    core::PeKind kind = core::PeKind::SseCore;
    std::uint64_t cells_accepted = 0;
    std::uint64_t cells_discarded = 0;
};

struct RunReport {
    /// A task the run could not complete: its retry budget was spent (or
    /// no live slave remained). Surfaced here instead of aborting; the
    /// query's hits may be missing or partial.
    struct FailedTask {
        core::TaskId task = 0;
        std::uint32_t query_index = 0;
        std::size_t failures = 0;  ///< engine failures recorded for it
        std::string last_error;
    };

    double wall_seconds = 0.0;
    std::uint64_t accepted_cells = 0;  ///< counted once per task
    std::uint64_t computed_cells = 0;  ///< includes replica duplicates
    double gcups = 0.0;                ///< accepted_cells / wall
    std::size_t replicas_issued = 0;
    std::size_t completions_discarded = 0;
    /// MsgTaskFailed reports the master accepted (stale ones excluded).
    std::size_t task_failures = 0;
    /// Slaves deregistered by the liveness timeout.
    std::size_t slaves_presumed_dead = 0;
    /// MsgTaskDone from presumed-dead slaves, discarded (never
    /// double-merged).
    std::size_t late_completions_discarded = 0;
    /// Tasks given up on, in task order. Empty on a healthy run.
    std::vector<FailedTask> failed_tasks;
    std::vector<SlaveReport> slaves;
    /// Top-k hits per query (index-aligned with the query set).
    std::vector<std::vector<core::Hit>> hits;
    /// Snapshot of RuntimeOptions::metrics taken after the run (empty
    /// when no registry was attached).
    obs::MetricsSnapshot metrics;

    /// Per-PeKind accepted/discarded cell totals, in kind order.
    std::vector<KindCells> cells_by_kind() const;
};

/// The threaded master/slave execution environment (paper Fig. 4): the
/// calling thread runs the master (sequence acquisition, task allocation,
/// result merging); each SlaveSpec becomes a slave thread that registers,
/// requests work, executes tasks on its engine, and streams progress
/// notifications. The master side is runtime::MasterHost, shared with
/// the socket runtime; its MasterProtocol is the same protocol the
/// discrete-event simulator drives.
class HybridRuntime {
public:
    HybridRuntime(const db::Database& database,
                  std::vector<align::Sequence> queries,
                  RuntimeOptions options);

    /// Blocks until every task is finished and every slave has exited.
    RunReport run(std::vector<SlaveSpec> slaves,
                  std::unique_ptr<core::AllocationPolicy> policy);

private:
    const db::Database* database_;
    std::vector<align::Sequence> queries_;
    RuntimeOptions options_;
};

}  // namespace swh::runtime
