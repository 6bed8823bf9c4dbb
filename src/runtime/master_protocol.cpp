#include "runtime/master_protocol.hpp"

#include <algorithm>
#include <limits>
#include <variant>

#include "util/check.hpp"

namespace swh::runtime {

using core::PeId;
using core::TaskId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The counter `name` of `metrics`, or null when metrics are off.
obs::Counter* fault_counter(obs::MetricsRegistry* metrics, const char* name) {
    return metrics != nullptr ? &metrics->counter(name) : nullptr;
}

}  // namespace

MasterProtocol::MasterProtocol(core::SchedulerCore& sched,
                               core::ResultMerger& merger,
                               std::size_t slaves,
                               const RuntimeOptions& options,
                               obs::TraceLane* master_lane)
    : sched_(sched),
      merger_(merger),
      options_(options),
      master_lane_(master_lane),
      engine_failures_(fault_counter(options.metrics,
                                     "runtime.faults.engine_failures")),
      retries_(fault_counter(options.metrics, "runtime.faults.retries")),
      presumed_dead_(fault_counter(options.metrics,
                                   "runtime.faults.slaves_presumed_dead")),
      late_discards_(fault_counter(
          options.metrics, "runtime.faults.late_completions_discarded")),
      heartbeats_(fault_counter(options.metrics, "runtime.faults.heartbeats")),
      state_(slaves, PeState::Unseen),
      last_heard_(slaves, 0.0) {
    SWH_CHECK_GT(options.notify_period_s, 0.0,
                 "notify period must be positive");
    SWH_CHECK_GE(options.liveness_timeout_s, 0.0,
                 "liveness timeout must be non-negative");
    if (options.liveness_timeout_s > 0.0) {
        SWH_CHECK_GT(options.heartbeat_period_s, 0.0,
                     "heartbeat period must be positive");
        SWH_CHECK_LT(options.heartbeat_period_s, options.liveness_timeout_s,
                     "heartbeats slower than the liveness timeout would "
                     "declare every idle slave dead");
    }
    SWH_CHECK_GT(options.retry_backoff_s, 0.0,
                 "retry backoff must be positive");
    SWH_CHECK_GE(options.retry_backoff_max_s, options.retry_backoff_s,
                 "backoff cap below the backoff base");
    SWH_CHECK(options.master_link_faults.drop_prob == 0.0 ||
                  options.liveness_timeout_s > 0.0,
              "dropping slave->master messages requires liveness "
              "timeouts, or a lost Register/TaskDone deadlocks the run");
    report_.slaves.resize(slaves);
}

void MasterProtocol::on_message(net::MasterMsg msg, double now, Out& out) {
    const PeId from = std::visit([](const auto& m) { return m.pe; }, msg);
    SWH_CHECK_LT(from, state_.size(), "message from an unknown PE");
    const bool active = state_[from] == PeState::Active;
    // Any message is proof of life.
    if (active) last_heard_[from] = now;

    if (const auto* reg = std::get_if<net::MsgRegister>(&msg)) {
        // Idempotent: a slave that never heard back re-sends its
        // registration (the first may have been dropped). Post-death or
        // post-shutdown registers are ignored.
        if (state_[from] == PeState::Unseen) {
            state_[from] = PeState::Active;
            last_heard_[from] = now;
            sched_.register_slave(from, reg->kind);
        }
    } else if (std::holds_alternative<net::MsgWorkRequest>(msg)) {
        if (active) serve(from, now, out);
    } else if (const auto* prog = std::get_if<net::MsgProgress>(&msg)) {
        if (active && sched_.is_registered(from)) {
            sched_.on_progress(from, now, prog->cells_per_second);
        }
    } else if (std::holds_alternative<net::MsgHeartbeat>(msg)) {
        if (heartbeats_ != nullptr) heartbeats_->add();
        // Heartbeats double as an idle-work poll: one arrives only from
        // an idle-blocked slave, so if it is not parked in waiting_ its
        // WorkRequest must have been lost — serve it now (self-healing).
        if (active && waiting_.count(from) == 0) serve(from, now, out);
    } else if (const auto* done = std::get_if<net::MsgTaskDone>(&msg)) {
        on_task_done(*done, now, out);
    } else if (const auto* fail = std::get_if<net::MsgTaskFailed>(&msg)) {
        if (active) record_failure(from, fail->task, fail->what, now, out);
    } else if (std::holds_alternative<net::MsgDeregister>(msg)) {
        // Only an Active slave's leave counts; the deregister a
        // presumed-dead slave sends on its way out (or a duplicate)
        // must not count it as finished twice.
        if (active) {
            state_[from] = PeState::Left;
            waiting_.erase(from);
            sched_.deregister_slave(from, now);
            ++finished_slaves_;
            retry_waiting(now, out);  // its tasks may be Ready again
        }
    }
}

void MasterProtocol::on_task_done(const net::MsgTaskDone& done, double now,
                                  Out& out) {
    report_.computed_cells += done.result.cells;
    const PeState state = state_[done.pe];
    const std::vector<PeId> holders = sched_.task_executors(done.task);
    if (state != PeState::Active && state != PeState::Shutdown) {
        // Liveness false positive: the slave was slow, not dead. Its
        // tasks were already requeued; discard, never double-merge.
        discard(done.pe, done.result.cells);
        ++report_.late_completions_discarded;
        if (late_discards_ != nullptr) late_discards_->add();
    } else if (state == PeState::Shutdown ||
               std::find(holders.begin(), holders.end(), done.pe) ==
                   holders.end()) {
        // The slave finished before the end-of-run Shutdown reached it
        // (while a slave that has not joined yet keeps the run open), or
        // it no longer holds the task: a duplicate completion from
        // lost-done recovery, the original having been slow rather than
        // lost.
        discard(done.pe, done.result.cells);
        ++raced_discards_;
    } else if (sched_.on_task_complete(done.pe, done.task, now).accepted) {
        report_.accepted_cells += done.result.cells;
        ++report_.slaves[done.pe].results_accepted;
        report_.slaves[done.pe].cells_accepted += done.result.cells;
        merger_.add(done.result);
    } else {
        discard(done.pe, done.result.cells);
    }
    on_task_settled(now, out);
}

void MasterProtocol::discard(PeId pe, std::uint64_t cells) {
    ++report_.slaves[pe].results_discarded;
    report_.slaves[pe].cells_discarded += cells;
}

void MasterProtocol::serve(PeId pe, double now, Out& out) {
    if (!sched_.is_registered(pe)) return;  // raced with deregister
    if (options_.master_link_faults.drop_prob > 0.0) {
        // Lost-completion recovery: serve() only ever targets an idle
        // slave, so any Executing task the scheduler still shows queued
        // on it (minus parked retries) lost its TaskDone/TaskFailed to
        // the lossy link — re-issue it for recomputation. Without this,
        // a task whose completions all dropped can end up executing on
        // *every* slave, leaving no one eligible to replicate it and the
        // run stuck. If the original was merely slow rather than lost,
        // the duplicate completion is discarded by on_task_done's
        // executor guard.
        std::vector<core::Task> lost;
        for (const TaskId t : sched_.queue_of(pe)) {
            if (parked_keys_.count({pe, t}) != 0) continue;
            if (sched_.task_state(t) != core::TaskState::Executing) continue;
            lost.push_back(sched_.task(t));
        }
        if (!lost.empty()) {
            out.push_back(MasterAction{pe, net::MsgAssign{std::move(lost)}});
            return;
        }
    }
    const std::vector<TaskId> assigned = sched_.on_work_request(pe, now);
    if (!assigned.empty()) {
        std::vector<core::Task> with_meta;
        with_meta.reserve(assigned.size());
        for (const TaskId t : assigned) with_meta.push_back(sched_.task(t));
        out.push_back(MasterAction{pe, net::MsgAssign{std::move(with_meta)}});
    } else if (sched_.all_done()) {
        shut_down(pe, out);
    } else {
        out.push_back(MasterAction{pe, net::MsgNoWorkYet{}});
        waiting_.insert(pe);
    }
}

void MasterProtocol::retry_waiting(double now, Out& out) {
    const std::set<PeId> snapshot = std::exchange(waiting_, {});
    for (const PeId pe : snapshot) serve(pe, now, out);
}

// A task settled (accepted, discarded or abandoned): serve the starved
// slaves. Once every task is settled the run is over (paper SS IV-A.3:
// a replica still computing would only produce a discarded result), so
// every Active slave, busy or waiting, is shut down now rather than at
// its next work request. A busy slave's Shutdown cancels its engine at
// the next poll. Unseen slaves get theirs when they ask.
void MasterProtocol::on_task_settled(double now, Out& out) {
    retry_waiting(now, out);
    if (!sched_.all_done()) return;
    for (PeId pe = 0; pe < state_.size(); ++pe) {
        if (state_[pe] == PeState::Active) shut_down(pe, out);
    }
}

void MasterProtocol::shut_down(PeId pe, Out& out) {
    out.push_back(MasterAction{pe, net::MsgShutdown{}});
    state_[pe] = PeState::Shutdown;
    waiting_.erase(pe);
    ++finished_slaves_;
}

void MasterProtocol::declare_dead(PeId pe, double now, Out& out) {
    state_[pe] = PeState::Dead;
    report_.slaves[pe].presumed_dead = true;
    ++report_.slaves_presumed_dead;
    waiting_.erase(pe);
    if (sched_.is_registered(pe)) {
        // Requeues everything the slave held; replication semantics
        // already deduplicate if it turns out to be alive after all.
        sched_.deregister_slave(pe, now);
    }
    if (master_lane_ != nullptr) {
        master_lane_->emit(obs::EventKind::SlavePresumedDead, pe);
    }
    if (presumed_dead_ != nullptr) presumed_dead_->add();
    // Abandoning the link is the cooperative kill signal: a stalled
    // engine polling cancellation unwedges, an idle-blocked slave wakes
    // and exits. It also guarantees the caller can join/reap.
    out.push_back(MasterAction{pe, std::nullopt});
    ++finished_slaves_;
    retry_waiting(now, out);  // its tasks are Ready again
}

void MasterProtocol::record_failure(PeId pe, TaskId task,
                                    const std::string& what, double now,
                                    Out& out) {
    ++report_.task_failures;
    ++report_.slaves[pe].engine_failures;
    if (engine_failures_ != nullptr) engine_failures_->add();
    FailureRecord& log = failure_log_[task];
    ++log.failures;
    log.last_error = what;
    if (log.failures > options_.max_task_retries) {
        // Budget spent: settle the task as failed (unless a replica is
        // still running and may yet win).
        sched_.on_task_failed(pe, task, now, /*allow_retry=*/false);
        on_task_settled(now, out);
        return;
    }
    const double backoff = std::min(
        options_.retry_backoff_max_s,
        options_.retry_backoff_s *
            static_cast<double>(std::size_t{1} << (log.failures - 1)));
    parked_.push_back(ParkedRetry{now + backoff, pe, task});
    parked_keys_.insert({pe, task});
    if (retries_ != nullptr) retries_->add();
}

void MasterProtocol::on_timer(double now, Out& out) {
    // Parked retries falling due: requeue through the scheduler.
    // on_task_failed is stale-tolerant — if the pairing dissolved
    // meanwhile (replica won, slave died and was deregistered, task
    // already requeued), the call is a no-op.
    if (!parked_.empty()) {
        std::vector<ParkedRetry> still_parked;
        bool requeued = false;
        for (const ParkedRetry& p : parked_) {
            if (p.due > now) {
                still_parked.push_back(p);
                continue;
            }
            parked_keys_.erase({p.pe, p.task});
            const core::SchedulerCore::FailureOutcome outcome =
                sched_.on_task_failed(p.pe, p.task, now,
                                      /*allow_retry=*/true);
            requeued = requeued || outcome.requeued;
        }
        parked_ = std::move(still_parked);
        if (requeued) retry_waiting(now, out);
    }
    // Liveness sweep: any Active slave silent past the timeout is
    // declared dead and its work reclaimed.
    if (options_.liveness_timeout_s > 0.0) {
        for (PeId pe = 0; pe < state_.size(); ++pe) {
            if (state_[pe] == PeState::Active &&
                now >= liveness_deadline(pe)) {
                declare_dead(pe, now, out);
            }
        }
    }
}

double MasterProtocol::liveness_deadline(PeId pe) const {
    return last_heard_[pe] + options_.liveness_timeout_s;
}

double MasterProtocol::next_deadline() const {
    double deadline = kInf;
    for (const ParkedRetry& p : parked_) deadline = std::min(deadline, p.due);
    if (options_.liveness_timeout_s > 0.0) {
        for (PeId pe = 0; pe < state_.size(); ++pe) {
            if (state_[pe] == PeState::Active) {
                deadline = std::min(deadline, liveness_deadline(pe));
            }
        }
    }
    return deadline;
}

RunReport MasterProtocol::take_report() {
    report_.replicas_issued = sched_.replicas_issued();
    report_.completions_discarded =
        sched_.completions_discarded() + raced_discards_;
    // Surface every task the run gave up on: abandoned by the retry
    // budget, or left unfinished because no live slave remained.
    for (TaskId t = 0; t < sched_.total_tasks(); ++t) {
        const bool unfinished =
            sched_.task_state(t) != core::TaskState::Finished;
        if (!unfinished && !sched_.task_abandoned(t)) continue;
        RunReport::FailedTask failed;
        failed.task = t;
        failed.query_index = sched_.task(t).query_index;
        const auto it = failure_log_.find(t);
        if (it != failure_log_.end()) {
            failed.failures = it->second.failures;
            failed.last_error = it->second.last_error;
        } else {
            failed.last_error = "no live slave remained";
        }
        report_.failed_tasks.push_back(std::move(failed));
    }
    return std::move(report_);
}

}  // namespace swh::runtime
