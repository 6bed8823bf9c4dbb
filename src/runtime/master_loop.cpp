#include "runtime/master_loop.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <variant>

#include "util/check.hpp"

namespace swh::runtime {

using core::PeId;
using core::TaskId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Master-side lifecycle of one slave. Exactly one transition out of
/// Active increments finished_slaves, which is what makes the master
/// loop's termination condition immune to duplicate/late messages.
enum class PeState : std::uint8_t {
    Unseen,    ///< never registered (thread/process may not be up yet)
    Active,    ///< registered and presumed alive
    Shutdown,  ///< sent MsgShutdown (every task settled)
    Dead,      ///< liveness timeout expired; tasks were requeued
    Left,      ///< sent MsgDeregister (leave_after_tasks)
};

}  // namespace

void run_master_loop(core::SchedulerCore& sched, core::ResultMerger& merger,
                     net::Channel<net::MasterMsg>& inbox,
                     const std::vector<SlaveLink*>& links,
                     const Timer& clock, const MasterLoopConfig& config,
                     const MasterLoopCounters& counters,
                     obs::TraceLane* master_lane, RunReport& report) {
    const std::size_t n = links.size();
    const bool liveness = config.liveness_timeout_s > 0.0;
    report.slaves.resize(n);

    std::vector<PeState> pe_state(n, PeState::Unseen);
    std::vector<double> last_heard(n, 0.0);
    std::set<PeId> waiting;  ///< starved slaves owed an Assign/Shutdown
    std::set<std::pair<PeId, TaskId>> cancelled_inflight;
    std::size_t finished_slaves = 0;
    // Completions that raced a cancellation message; the scheduler never
    // sees them but they are discarded results all the same.
    std::size_t raced_discards = 0;

    // Engine-failure bookkeeping: per-task counts drive the retry budget
    // and the final failed-task report; parked retries hold a failed
    // task back for an exponential-backoff interval before requeueing
    // (during which a replica may still rescue it).
    struct FailureRecord {
        std::size_t failures = 0;
        std::string last_error;
    };
    std::map<TaskId, FailureRecord> failure_log;
    struct ParkedRetry {
        double due = 0.0;
        PeId pe = 0;
        TaskId task = 0;
    };
    std::vector<ParkedRetry> parked;
    std::set<std::pair<PeId, TaskId>> parked_keys;

    auto shut_down = [&](PeId pe) {
        links[pe]->send(net::MsgShutdown{});
        pe_state[pe] = PeState::Shutdown;
        waiting.erase(pe);
        ++finished_slaves;
    };

    auto serve = [&](PeId pe) {
        if (!sched.is_registered(pe)) return;  // raced with deregister
        if (config.lossy_master_link) {
            // Lost-completion recovery: serve() only ever targets an
            // idle slave, so any Executing task the scheduler still
            // shows queued on it (minus parked retries) lost its
            // TaskDone/TaskFailed to the lossy link — re-issue it for
            // recomputation. Without this, a task whose completions all
            // dropped can end up executing on *every* slave, leaving no
            // one eligible to replicate it and the run stuck. If the
            // original was merely slow rather than lost, the duplicate
            // completion is discarded by the executor guard below.
            std::vector<core::Task> lost;
            for (const TaskId t : sched.queue_of(pe)) {
                if (parked_keys.count({pe, t}) != 0) continue;
                if (sched.task_state(t) != core::TaskState::Executing)
                    continue;
                lost.push_back(sched.task(t));
            }
            if (!lost.empty()) {
                links[pe]->send(net::MsgAssign{std::move(lost)});
                return;
            }
        }
        const std::vector<TaskId> assigned =
            sched.on_work_request(pe, clock.seconds());
        if (!assigned.empty()) {
            std::vector<core::Task> with_meta;
            with_meta.reserve(assigned.size());
            for (const TaskId t : assigned) with_meta.push_back(sched.task(t));
            links[pe]->send(net::MsgAssign{std::move(with_meta)});
        } else if (sched.all_done()) {
            shut_down(pe);
        } else {
            links[pe]->send(net::MsgNoWorkYet{});
            waiting.insert(pe);
        }
    };

    auto retry_waiting = [&] {
        const std::set<PeId> snapshot = std::exchange(waiting, {});
        for (const PeId pe : snapshot) serve(pe);
    };

    // A task settled (accepted or abandoned): serve the starved slaves.
    // Once every task is settled the run is over (paper SS IV-A.3: a
    // replica still computing would only produce a discarded result),
    // so every Active slave, busy or waiting, is shut down now rather
    // than at its next work request. A busy slave's Shutdown cancels its
    // engine at the next poll. Unseen slaves get theirs when they ask.
    auto on_task_settled = [&] {
        retry_waiting();
        if (!sched.all_done()) return;
        for (PeId pe = 0; pe < n; ++pe) {
            if (pe_state[pe] == PeState::Active) shut_down(pe);
        }
    };

    auto declare_dead = [&](PeId pe, double now) {
        pe_state[pe] = PeState::Dead;
        report.slaves[pe].presumed_dead = true;
        ++report.slaves_presumed_dead;
        waiting.erase(pe);
        if (sched.is_registered(pe)) {
            // Requeues everything the slave held; replication semantics
            // already deduplicate if it turns out to be alive after all.
            sched.deregister_slave(pe, now);
        }
        if (master_lane != nullptr) {
            master_lane->emit(obs::EventKind::SlavePresumedDead, pe);
        }
        if (counters.presumed_dead != nullptr) counters.presumed_dead->add();
        // Abandoning the link is the cooperative kill signal: a stalled
        // engine polling cancellation unwedges, an idle-blocked slave
        // wakes and exits. It also guarantees the caller can join/reap.
        links[pe]->abandon();
        ++finished_slaves;
        retry_waiting();  // its tasks are Ready again
    };

    auto record_failure = [&](PeId pe, TaskId task, const std::string& what,
                              double now) {
        ++report.task_failures;
        ++report.slaves[pe].engine_failures;
        if (counters.engine_failures != nullptr) {
            counters.engine_failures->add();
        }
        FailureRecord& log = failure_log[task];
        ++log.failures;
        log.last_error = what;
        if (log.failures > config.max_task_retries) {
            // Budget spent: settle the task as failed (unless a replica
            // is still running and may yet win).
            sched.on_task_failed(pe, task, now, /*allow_retry=*/false);
            on_task_settled();
        } else {
            const double backoff = std::min(
                config.retry_backoff_max_s,
                config.retry_backoff_s *
                    static_cast<double>(std::size_t{1}
                                        << (log.failures - 1)));
            parked.push_back(ParkedRetry{now + backoff, pe, task});
            parked_keys.insert({pe, task});
            if (counters.retries != nullptr) counters.retries->add();
        }
    };

    while (finished_slaves < n) {
        // Deadline-driven wait (ISSUE 5 tentpole): the old blocking
        // recv() deadlocked forever when a slave died silently. Wake at
        // the earliest of (a) the next parked retry falling due, (b) the
        // next possible liveness expiry; block indefinitely only when
        // neither exists (then the old semantics apply unchanged).
        double wait = kInf;
        {
            const double now = clock.seconds();
            for (const ParkedRetry& p : parked) {
                wait = std::min(wait, p.due - now);
            }
            if (liveness) {
                for (PeId pe = 0; pe < n; ++pe) {
                    if (pe_state[pe] != PeState::Active) continue;
                    wait = std::min(wait, last_heard[pe] +
                                              config.liveness_timeout_s -
                                              now);
                }
            }
        }
        std::optional<net::MasterMsg> msg =
            wait == kInf ? inbox.recv()
                         : inbox.recv_for(std::max(wait, 1e-4));
        SWH_CHECK(msg.has_value() || !inbox.closed(),
                  "master inbox closed prematurely");
        const double now = clock.seconds();

        if (msg.has_value()) {
            // Any message is proof of life.
            const PeId from =
                std::visit([](const auto& m) { return m.pe; }, *msg);
            SWH_CHECK_LT(from, n, "message from an unknown PE");
            if (pe_state[from] == PeState::Active) last_heard[from] = now;

            if (const auto* reg = std::get_if<net::MsgRegister>(&*msg)) {
                // Idempotent: a slave that never heard back re-sends its
                // registration (the first may have been dropped).
                // Post-death or post-shutdown registers are ignored.
                if (pe_state[reg->pe] == PeState::Unseen) {
                    pe_state[reg->pe] = PeState::Active;
                    last_heard[reg->pe] = now;
                    sched.register_slave(reg->pe, reg->kind);
                }
            } else if (const auto* req =
                           std::get_if<net::MsgWorkRequest>(&*msg)) {
                if (pe_state[req->pe] == PeState::Active) serve(req->pe);
            } else if (const auto* prog =
                           std::get_if<net::MsgProgress>(&*msg)) {
                if (pe_state[prog->pe] == PeState::Active &&
                    sched.is_registered(prog->pe)) {
                    sched.on_progress(prog->pe, now, prog->cells_per_second);
                }
            } else if (const auto* hb =
                           std::get_if<net::MsgHeartbeat>(&*msg)) {
                if (counters.heartbeats != nullptr) counters.heartbeats->add();
                // Heartbeats double as an idle-work poll: one arrives
                // only from an idle-blocked slave, so if the master
                // doesn't have it parked in `waiting` its WorkRequest
                // must have been lost — serve it now (self-healing).
                if (pe_state[hb->pe] == PeState::Active &&
                    waiting.count(hb->pe) == 0) {
                    serve(hb->pe);
                }
            } else if (auto* done = std::get_if<net::MsgTaskDone>(&*msg)) {
                report.computed_cells += done->result.cells;
                const auto key = std::make_pair(done->pe, done->task);
                const PeState from = pe_state[done->pe];
                if (from != PeState::Active && from != PeState::Shutdown) {
                    // Liveness false positive: the slave was slow, not
                    // dead. Its tasks were already requeued; treat the
                    // late completion exactly like a raced cancellation
                    // — discard, never double-merge.
                    ++report.slaves[done->pe].results_discarded;
                    report.slaves[done->pe].cells_discarded +=
                        done->result.cells;
                    ++report.late_completions_discarded;
                    if (counters.late_discards != nullptr) {
                        counters.late_discards->add();
                    }
                } else if (from == PeState::Shutdown ||
                           cancelled_inflight.erase(key) > 0) {
                    // The slave finished before our cancellation (or the
                    // end-of-run Shutdown, while a slave that has not
                    // joined yet keeps the loop open) reached it.
                    ++report.slaves[done->pe].results_discarded;
                    report.slaves[done->pe].cells_discarded +=
                        done->result.cells;
                    ++raced_discards;
                } else if ([&] {
                               const std::vector<PeId> exec =
                                   sched.task_executors(done->task);
                               return std::find(exec.begin(), exec.end(),
                                                done->pe) == exec.end();
                           }()) {
                    // Executor guard: the slave no longer holds this
                    // task — a duplicate completion from lost-done
                    // recovery, its original having been slow rather
                    // than lost. Discard like a raced cancellation.
                    ++report.slaves[done->pe].results_discarded;
                    report.slaves[done->pe].cells_discarded +=
                        done->result.cells;
                    ++raced_discards;
                } else {
                    const core::SchedulerCore::CompletionResult cr =
                        sched.on_task_complete(done->pe, done->task, now);
                    if (cr.accepted) {
                        report.accepted_cells += done->result.cells;
                        ++report.slaves[done->pe].results_accepted;
                        report.slaves[done->pe].cells_accepted +=
                            done->result.cells;
                        merger.add(done->result);
                    } else {
                        ++report.slaves[done->pe].results_discarded;
                        report.slaves[done->pe].cells_discarded +=
                            done->result.cells;
                    }
                    for (const PeId loser : cr.cancelled) {
                        links[loser]->send(net::MsgCancel{done->task});
                        cancelled_inflight.insert({loser, done->task});
                    }
                }
                on_task_settled();
            } else if (const auto* fail =
                           std::get_if<net::MsgTaskFailed>(&*msg)) {
                if (pe_state[fail->pe] == PeState::Active) {
                    record_failure(fail->pe, fail->task, fail->what, now);
                }
            } else if (const auto* dereg =
                           std::get_if<net::MsgDeregister>(&*msg)) {
                // Only an Active slave's leave counts; the deregister a
                // presumed-dead slave sends on its way out (or a
                // duplicate) must not double-increment finished_slaves.
                if (pe_state[dereg->pe] == PeState::Active) {
                    pe_state[dereg->pe] = PeState::Left;
                    waiting.erase(dereg->pe);
                    sched.deregister_slave(dereg->pe, now);
                    ++finished_slaves;
                    retry_waiting();  // its tasks may be Ready again
                }
            }
        }

        // Parked retries falling due: requeue through the scheduler.
        // on_task_failed is stale-tolerant — if the pairing dissolved
        // meanwhile (replica won, slave died and was deregistered, task
        // already requeued), the call is a no-op.
        if (!parked.empty()) {
            std::vector<ParkedRetry> still_parked;
            bool requeued = false;
            for (const ParkedRetry& p : parked) {
                if (p.due > now) {
                    still_parked.push_back(p);
                    continue;
                }
                parked_keys.erase({p.pe, p.task});
                const core::SchedulerCore::FailureOutcome out =
                    sched.on_task_failed(p.pe, p.task, now,
                                         /*allow_retry=*/true);
                requeued = requeued || out.requeued;
            }
            parked = std::move(still_parked);
            if (requeued) retry_waiting();
        }

        // Liveness sweep: any Active slave silent past the timeout is
        // declared dead and its work reclaimed.
        if (liveness) {
            for (PeId pe = 0; pe < n; ++pe) {
                if (pe_state[pe] != PeState::Active) continue;
                if (now - last_heard[pe] >= config.liveness_timeout_s) {
                    declare_dead(pe, now);
                }
            }
        }
    }

    report.replicas_issued = sched.replicas_issued();
    report.completions_discarded =
        sched.completions_discarded() + raced_discards;
    // Surface every task the run gave up on: abandoned by the retry
    // budget, or left unfinished because no live slave remained.
    for (TaskId t = 0; t < sched.total_tasks(); ++t) {
        const bool unfinished =
            sched.task_state(t) != core::TaskState::Finished;
        if (!unfinished && !sched.task_abandoned(t)) continue;
        RunReport::FailedTask failed;
        failed.task = t;
        failed.query_index = sched.task(t).query_index;
        const auto it = failure_log.find(t);
        if (it != failure_log.end()) {
            failed.failures = it->second.failures;
            failed.last_error = it->second.last_error;
        } else {
            failed.last_error = "no live slave remained";
        }
        report.failed_tasks.push_back(std::move(failed));
    }
}

}  // namespace swh::runtime
