#pragma once

// The master protocol as a step function. MasterProtocol owns everything
// the master knows beyond SchedulerCore: PE lifecycle states, the
// starved slaves owed a reply, parked retries with exponential backoff,
// the failure log, lost-completion recovery and the report counters. It
// never reads a clock, blocks or sends; each step takes the caller's
// `now` and appends its replies and abandon orders to `out`. Two pumps
// drive it: MasterHost's wall-clock pump (runtime/master_host.hpp)
// behind both the threaded and the socket runtime, and the
// discrete-event simulator on virtual time (sim/simulator.cpp), so every
// master runs one protocol.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/results.hpp"
#include "core/scheduler.hpp"
#include "net/messages.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/hybrid_runtime.hpp"

namespace swh::runtime {

/// One outbound effect of a protocol step, for slave `pe`.
struct MasterAction {
    core::PeId pe = 0;
    /// The reply to deliver; empty = abandon the slave's link (the
    /// liveness timeout gave up on it).
    std::optional<net::SlaveMsg> msg;
};

/// The master's message handling for `slaves` PEs (ids 0..slaves-1),
/// on top of `sched` and `merger`. Every Active slave is shut down in
/// the step where every task becomes settled, busy or not, so a run
/// ends at its last accepted result.
class MasterProtocol {
public:
    /// Reads the fault-tolerance settings of `options` and resolves the
    /// runtime.faults.* counters of `options.metrics`; throws
    /// ContractError on inconsistent settings.
    MasterProtocol(core::SchedulerCore& sched, core::ResultMerger& merger,
                   std::size_t slaves, const RuntimeOptions& options,
                   obs::TraceLane* master_lane = nullptr);

    /// Handles one inbound message that arrived at `now`.
    void on_message(net::MasterMsg msg, double now,
                    std::vector<MasterAction>& out);

    /// Requeues the parked retries due by `now` and declares dead every
    /// Active slave silent since `now - liveness_timeout_s`.
    void on_timer(double now, std::vector<MasterAction>& out);

    /// When on_timer next has work: the earliest parked retry or
    /// liveness expiry; +inf when neither exists.
    double next_deadline() const;

    /// Every slave has been shut down, has left, or was presumed dead.
    bool finished() const { return finished_slaves_ == state_.size(); }

    /// The report so far: per-slave accept/discard stats, fault
    /// counters, accepted and computed cells.
    const RunReport& report() const { return report_; }

    /// Adds replicas_issued, completions_discarded and failed_tasks and
    /// hands the report over. wall_seconds, gcups, hits, metrics and the
    /// slave-side stats are the caller's.
    RunReport take_report();

private:
    /// Master-side lifecycle of one slave. Exactly one transition out of
    /// Active increments finished_slaves_, which is what makes the
    /// termination condition immune to duplicate and late messages.
    enum class PeState : std::uint8_t {
        Unseen,    ///< never registered (thread/process may not be up yet)
        Active,    ///< registered and presumed alive
        Shutdown,  ///< sent MsgShutdown (every task settled)
        Dead,      ///< liveness timeout expired; tasks were requeued
        Left,      ///< sent MsgDeregister (leave_after_tasks)
    };
    using Out = std::vector<MasterAction>;

    void on_task_done(const net::MsgTaskDone& done, double now, Out& out);
    void serve(core::PeId pe, double now, Out& out);
    void retry_waiting(double now, Out& out);
    void on_task_settled(double now, Out& out);
    void shut_down(core::PeId pe, Out& out);
    void declare_dead(core::PeId pe, double now, Out& out);
    void record_failure(core::PeId pe, core::TaskId task,
                        const std::string& what, double now, Out& out);
    void discard(core::PeId pe, std::uint64_t cells);
    double liveness_deadline(core::PeId pe) const;

    core::SchedulerCore& sched_;
    core::ResultMerger& merger_;
    const RuntimeOptions options_;
    obs::TraceLane* const master_lane_;
    /// Fault-metric sinks (null = metrics off).
    obs::Counter* const engine_failures_;
    obs::Counter* const retries_;
    obs::Counter* const presumed_dead_;
    obs::Counter* const late_discards_;
    obs::Counter* const heartbeats_;

    std::vector<PeState> state_;
    std::vector<double> last_heard_;
    /// Starved slaves owed an Assign or a Shutdown.
    std::set<core::PeId> waiting_;
    std::size_t finished_slaves_ = 0;
    /// Completions the scheduler never saw (they crossed the end-of-run
    /// Shutdown, or duplicate a lost-done re-issue) but which are
    /// discarded results all the same.
    std::size_t raced_discards_ = 0;

    /// Engine-failure bookkeeping: per-task counts drive the retry
    /// budget and the final failed-task report; a parked retry holds a
    /// failed task back for an exponential-backoff interval before
    /// requeueing it (a replica may still rescue it meanwhile).
    struct FailureRecord {
        std::size_t failures = 0;
        std::string last_error;
    };
    std::map<core::TaskId, FailureRecord> failure_log_;
    struct ParkedRetry {
        double due = 0.0;
        core::PeId pe = 0;
        core::TaskId task = 0;
    };
    std::vector<ParkedRetry> parked_;
    std::set<std::pair<core::PeId, core::TaskId>> parked_keys_;

    RunReport report_;
};

}  // namespace swh::runtime
