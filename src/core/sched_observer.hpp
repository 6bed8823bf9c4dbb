#pragma once

#include <cstddef>

#include "core/types.hpp"

namespace swh::core {

/// Observer of the master's scheduling decisions. SchedulerCore stays
/// thread/clock/IO-free: it only reports what it decided, with the
/// caller-supplied `now`, on the thread that delivered the event (the
/// threaded runtime's master thread, or the simulator's event loop).
/// Implementations live outside core (see obs::SchedTracer); every
/// callback has an empty default so observers override only what they
/// need. Callbacks must not re-enter the scheduler.
class SchedObserver {
public:
    virtual ~SchedObserver() = default;

    virtual void on_slave_registered(PeId pe, PeKind kind, double now) {
        (void)pe;
        (void)kind;
        (void)now;
    }

    virtual void on_slave_deregistered(PeId pe, double now) {
        (void)pe;
        (void)now;
    }

    /// One work package handed out: `tasks` ids were assigned together.
    /// `replica` marks a workload-adjustment package (a task re-assigned
    /// while still executing elsewhere).
    virtual void on_package_sized(PeId pe, std::size_t tasks, bool replica,
                                  double now) {
        (void)pe;
        (void)tasks;
        (void)replica;
        (void)now;
    }

    virtual void on_task_assigned(PeId pe, TaskId task, double now) {
        (void)pe;
        (void)task;
        (void)now;
    }

    virtual void on_replica_issued(PeId pe, TaskId task, double now) {
        (void)pe;
        (void)task;
        (void)now;
    }

    /// A progress notification was folded into the slave's history.
    /// `prior_estimate` is the recency-weighted rate the scheduler held
    /// *before* this sample (0 = no history yet) — the delta against
    /// `cells_per_second` is the estimate's realised error.
    virtual void on_progress(PeId pe, double now, double cells_per_second,
                             double prior_estimate) {
        (void)pe;
        (void)now;
        (void)cells_per_second;
        (void)prior_estimate;
    }

    virtual void on_task_completed(PeId pe, TaskId task, bool accepted,
                                   double now) {
        (void)pe;
        (void)task;
        (void)accepted;
        (void)now;
    }

    /// `pe` reported an engine failure while executing `task`.
    /// `abandoned` = the retry budget is spent and no replica is still
    /// running, so the task settles as failed instead of requeueing.
    virtual void on_task_failed(PeId pe, TaskId task, bool abandoned,
                                double now) {
        (void)pe;
        (void)task;
        (void)abandoned;
        (void)now;
    }
};

}  // namespace swh::core
