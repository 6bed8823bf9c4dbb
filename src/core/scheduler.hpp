#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/policy.hpp"
#include "core/progress.hpp"
#include "core/sched_observer.hpp"
#include "core/task_table.hpp"
#include "core/types.hpp"
#include "util/annotations.hpp"

namespace swh::core {

/// Scheduler configuration (paper SS IV-A).
struct SchedulerOptions {
    /// The workload-adjustment mechanism: when a slave asks for work and
    /// no ready task exists, re-assign a task still executing elsewhere.
    bool workload_adjust = true;

    /// Extension ablation: only replicate a task if the idle PE's
    /// estimated completion beats the current owner's estimate. Off =
    /// paper behaviour (idle PEs always get an executing task).
    bool replicate_only_if_faster = false;

    /// Progress-history window Omega (paper SS IV-A.2).
    std::size_t omega = 8;

    /// Ready-queue order. LargestFirst (LPT) hands out the most cells
    /// first, which shrinks the straggler tail the adjustment mechanism
    /// would otherwise absorb with replicas. The paper hands tasks out
    /// in query-file order (FifoById); the paper reproductions pin it.
    ReadyOrder ready_order = ReadyOrder::LargestFirst;
};

/// The master's decision logic, as an event-driven state machine.
///
/// Every behaviour of the paper's master lives here: first-allocation
/// rounds, policy-sized packages, the ready/executing/finished task
/// table, and the workload-adjustment replication. The class has no
/// threads, clocks, or I/O — callers (the threaded runtime and the
/// discrete-event simulator) deliver events with an explicit timestamp
/// `now` (seconds on the caller's clock, only used for remaining-work
/// estimates). This is what lets the simulated experiments exercise the
/// same scheduler that runs for real.
///
/// Thread-safe: every event and introspection call serialises on an
/// internal mutex (annotated for Clang -Wthread-safety, so unguarded
/// access to the task table or slave map is a compile error). The
/// threaded runtime delivers all events from the master thread, so the
/// lock is uncontended there; the lock makes the serialisation a
/// checked property instead of a calling convention.
class SchedulerCore {
public:
    SchedulerCore(std::vector<Task> tasks,
                  std::unique_ptr<AllocationPolicy> policy,
                  SchedulerOptions options);

    /// Attaches a decision observer (nullptr detaches). Non-owning; the
    /// observer must outlive the scheduler or be detached first. Events
    /// are reported synchronously, with the scheduler mutex held — the
    /// observer must not call back into the scheduler.
    void set_observer(SchedObserver* observer) SWH_EXCLUDES(mu_);

    // ---- Slave membership -------------------------------------------

    void register_slave(PeId pe, PeKind kind, double now) SWH_EXCLUDES(mu_);

    /// Node leave (future-work extension): tasks the PE held alone go
    /// back to Ready; replicas elsewhere keep running.
    void deregister_slave(PeId pe, double now) SWH_EXCLUDES(mu_);

    bool is_registered(PeId pe) const SWH_EXCLUDES(mu_);

    // ---- Events -------------------------------------------------------

    /// A slave asks for work. Returns the assigned task ids, in the order
    /// the slave should execute them. Empty result: nothing to assign
    /// right now (the driver should retry after the next completion, or
    /// stop if all_done()).
    std::vector<TaskId> on_work_request(PeId pe, double now)
        SWH_EXCLUDES(mu_);

    /// Periodic progress notification: observed processing speed in
    /// cells/second since the previous notification.
    void on_progress(PeId pe, double now, double cells_per_second)
        SWH_EXCLUDES(mu_);

    struct CompletionResult {
        bool accepted = false;  ///< first finisher; results are kept
    };

    CompletionResult on_task_complete(PeId pe, TaskId task, double now)
        SWH_EXCLUDES(mu_);

    struct FailureOutcome {
        /// The report referred to a pairing that no longer exists (PE
        /// deregistered, task already settled or not held by the PE) —
        /// nothing changed.
        bool stale = false;
        bool requeued = false;   ///< task went back to Ready for retry
        bool abandoned = false;  ///< retry budget spent; settled as failed
    };

    /// `pe` failed to execute `task` (engine exception). With
    /// `allow_retry` the task is released back to Ready (front of the
    /// queue); otherwise it is abandoned — settled as Finished with no
    /// winner so the run terminates and reports it as failed. Either
    /// way, a replica still running elsewhere keeps the task Executing.
    FailureOutcome on_task_failed(PeId pe, TaskId task, double now,
                                  bool allow_retry) SWH_EXCLUDES(mu_);

    // ---- Introspection ------------------------------------------------
    // Each call takes the scheduler mutex and returns a copy, so results
    // are consistent snapshots even against concurrent event delivery.

    bool all_done() const SWH_EXCLUDES(mu_);

    std::size_t total_tasks() const SWH_EXCLUDES(mu_);
    std::size_t ready_count() const SWH_EXCLUDES(mu_);
    std::size_t executing_count() const SWH_EXCLUDES(mu_);
    std::size_t finished_count() const SWH_EXCLUDES(mu_);

    Task task(TaskId id) const SWH_EXCLUDES(mu_);
    TaskState task_state(TaskId id) const SWH_EXCLUDES(mu_);
    /// PE whose completion was accepted; kInvalidPe if not finished.
    PeId task_winner(TaskId id) const SWH_EXCLUDES(mu_);
    /// True if the task was settled by retry exhaustion (no winner).
    bool task_abandoned(TaskId id) const SWH_EXCLUDES(mu_);
    /// PEs currently holding the task (first is the original assignee).
    std::vector<PeId> task_executors(TaskId id) const SWH_EXCLUDES(mu_);

    const SchedulerOptions& options() const { return options_; }

    /// Current recency-weighted rate estimate for a slave (0 = unknown).
    double rate_estimate(PeId pe) const SWH_EXCLUDES(mu_);

    /// Tasks currently assigned to a slave, execution order.
    std::vector<TaskId> queue_of(PeId pe) const SWH_EXCLUDES(mu_);

    std::size_t replicas_issued() const SWH_EXCLUDES(mu_);
    std::size_t completions_discarded() const SWH_EXCLUDES(mu_);
    std::size_t tasks_failed() const SWH_EXCLUDES(mu_);
    std::size_t tasks_abandoned() const SWH_EXCLUDES(mu_);

    /// Sweeps the task-table invariants plus the scheduler-level ones:
    /// every queued task of a live slave is held by that slave and is
    /// not Ready, and no slave queue contains duplicates. Throws
    /// swh::check::CheckFailure on violation. SWH_AUDIT builds run it
    /// automatically after every event.
    void check_invariants() const SWH_EXCLUDES(mu_);

private:
    struct Slave {
        PeKind kind;
        ProgressHistory history;
        std::deque<TaskId> queue;    ///< front = running now
        double front_started = 0.0;  ///< when the front task began
    };

    Slave& slave(PeId pe) SWH_REQUIRES(mu_);
    const Slave& slave(PeId pe) const SWH_REQUIRES(mu_);

    std::vector<SlaveView> views() const SWH_REQUIRES(mu_);

    /// Fallback rate when a slave has no history: mean of known rates,
    /// else 1 (only relative magnitudes matter for the estimates).
    double effective_rate(const Slave& s) const SWH_REQUIRES(mu_);

    /// Estimated completion time of task `t` on slave `q` given queue
    /// position; +inf if it cannot be estimated.
    double estimated_completion(PeId q, TaskId t, double now) const
        SWH_REQUIRES(mu_);

    /// Picks the executing task worth replicating onto `pe`, if any.
    std::optional<TaskId> pick_replica(PeId pe, double now) const
        SWH_REQUIRES(mu_);

    void remove_from_queue(PeId pe, TaskId task, double now)
        SWH_REQUIRES(mu_);

    void check_invariants_locked() const SWH_REQUIRES(mu_);

    mutable swh::Mutex mu_;
    TaskTable table_ SWH_GUARDED_BY(mu_);
    std::unique_ptr<AllocationPolicy> policy_ SWH_PT_GUARDED_BY(mu_);
    const SchedulerOptions options_;  ///< immutable after construction
    SchedObserver* observer_ SWH_GUARDED_BY(mu_) = nullptr;
    std::map<PeId, Slave> slaves_ SWH_GUARDED_BY(mu_);
    std::size_t replicas_issued_ SWH_GUARDED_BY(mu_) = 0;
    std::size_t completions_discarded_ SWH_GUARDED_BY(mu_) = 0;
    std::size_t tasks_failed_ SWH_GUARDED_BY(mu_) = 0;
    std::size_t tasks_abandoned_ SWH_GUARDED_BY(mu_) = 0;
};

}  // namespace swh::core
