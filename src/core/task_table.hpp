#pragma once

#include <optional>
#include <vector>

#include "core/types.hpp"

namespace swh::core {

/// Order in which ready tasks are handed out.
enum class ReadyOrder : std::uint8_t {
    FifoById,      ///< query-file order — the paper's behaviour
    LargestFirst,  ///< LPT: most cells first (shrinks the straggler tail)
};

/// Bookkeeping for the task pool: states, executor sets (replicas), and
/// completion winners. Single-threaded by design — SchedulerCore owns one
/// and serialises access; drivers provide their own synchronisation.
class TaskTable {
public:
    explicit TaskTable(std::vector<Task> tasks,
                       ReadyOrder order = ReadyOrder::LargestFirst);

    std::size_t total() const { return entries_.size(); }
    std::size_t ready_count() const { return ready_count_; }
    std::size_t executing_count() const { return executing_count_; }
    std::size_t finished_count() const { return finished_count_; }
    bool all_finished() const { return finished_count_ == entries_.size(); }

    const Task& task(TaskId id) const;
    TaskState state(TaskId id) const;

    /// PEs currently holding the task (first is the original assignee).
    const std::vector<PeId>& executors(TaskId id) const;

    /// PE whose completion was accepted; kInvalidPe if not finished.
    PeId winner(TaskId id) const;

    /// Pops the next ready task in ReadyOrder and marks it executing on
    /// `pe`.
    std::optional<TaskId> acquire_ready(PeId pe);

    /// Adds `pe` as an extra executor of an already-executing task
    /// (workload adjustment). Fails if the task is not Executing or the
    /// PE already executes it.
    void add_replica(TaskId id, PeId pe);

    /// True if `pe` currently appears among the task's executors.
    bool is_executor(TaskId id, PeId pe) const;

    /// Records a completion. Returns true if this was the first finisher
    /// (the result is accepted); false for a losing replica, whose result
    /// the master discards.
    bool complete(TaskId id, PeId pe);

    /// Removes `pe` from a task's executor set without completing it
    /// (failed attempt, or node left). If no executors remain and the
    /// task is not finished, it returns to Ready (and to the ready
    /// queue's front, so it is re-issued promptly).
    void release(TaskId id, PeId pe);

    /// Gives up on a task whose retry budget is exhausted: removes `pe`
    /// from the executor set and, if that left the task with no
    /// executors, settles it as Finished *without* a winner (the run
    /// reports it as failed instead of aborting). Returns true when the
    /// task was abandoned; false when other replicas are still running
    /// and may yet finish it.
    bool abandon(TaskId id, PeId pe);

    /// True if the task was settled by abandon() rather than a winner.
    bool abandoned(TaskId id) const;

    /// Ids of all tasks currently in the Executing state.
    std::vector<TaskId> executing_tasks() const;

    /// Full-table sweep of the task-lifecycle invariants (paper SS
    /// IV-A.3): state tallies match a fresh scan and sum to the total;
    /// Ready tasks have no executors and sit in the ready queue;
    /// Executing tasks have at least one executor, no duplicates, and
    /// no winner; Finished tasks have a winner settled exactly once.
    /// Throws swh::check::CheckFailure on violation. Cheap enough for
    /// tests to call directly; SWH_AUDIT builds run it automatically
    /// after every mutation.
    void check_invariants() const;

private:
    struct Entry {
        Task task;
        TaskState state = TaskState::Ready;
        std::vector<PeId> executors;
        PeId winner = kInvalidPe;
        bool abandoned = false;  ///< Finished with no winner (retries spent)
    };

    Entry& entry(TaskId id);
    const Entry& entry(TaskId id) const;

    std::vector<Entry> entries_;
    std::vector<TaskId> ready_queue_;  ///< front = next to hand out
    std::size_t ready_count_ = 0;
    std::size_t executing_count_ = 0;
    std::size_t finished_count_ = 0;
};

}  // namespace swh::core
