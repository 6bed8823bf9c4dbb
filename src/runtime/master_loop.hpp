#pragma once

// Protocol loop of the master, factored out of HybridRuntime (ISSUE
// 10): the deadline-driven message pump, PE lifecycle states, liveness
// sweep, parked retries with exponential backoff, lost-completion
// recovery, and replica cancellation — shared verbatim between the
// threaded runtime and the multi-process socket runtime so the PR-5
// fault machinery is exercised identically over both transports.

#include <cstddef>
#include <vector>

#include "core/results.hpp"
#include "core/scheduler.hpp"
#include "net/channel.hpp"
#include "net/messages.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/hybrid_runtime.hpp"
#include "util/timer.hpp"

namespace swh::runtime {

/// The master loop's downlink to one slave. The threaded runtime backs
/// it with the slave's shared-inbox Channel; the socket runtime encodes
/// frames onto that slave's connection.
class SlaveLink {
public:
    virtual ~SlaveLink() = default;

    virtual void send(net::SlaveMsg msg) = 0;

    /// Cooperative kill for a slave the liveness layer gave up on: make
    /// its blocked recv unblock and its cancellation poll fire
    /// (threaded: mark abandoned + close the inbox; socket: shut the
    /// connection down).
    virtual void abandon() = 0;
};

/// Optional fault-metric sinks (null = off), pre-resolved by the caller
/// so the loop never touches a registry.
struct MasterLoopCounters {
    obs::Counter* engine_failures = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* presumed_dead = nullptr;
    obs::Counter* late_discards = nullptr;
    obs::Counter* heartbeats = nullptr;
};

struct MasterLoopConfig {
    /// 0 disables liveness — the original immortal-slave assumption.
    double liveness_timeout_s = 0.0;
    /// Enables lost-completion recovery on serve (only needed when the
    /// slave->master link can drop messages).
    bool lossy_master_link = false;
    std::size_t max_task_retries = 3;
    double retry_backoff_s = 0.01;
    double retry_backoff_max_s = 1.0;
};

/// Runs the master protocol until every slave has finished (shutdown,
/// left, or presumed dead). Every Active slave is shut down as soon as
/// all tasks are settled, busy or not, so the loop returns at the last
/// accepted result. Consumes `inbox`; replies go out through
/// `links` (index = PeId). Fills the scheduler-derived fields of
/// `report` — per-slave accept/discard stats, fault counters,
/// replicas_issued, completions_discarded, failed_tasks — leaving
/// wall_seconds/gcups/hits/metrics and slave-side stats to the caller.
/// `clock` must be the timebase the scheduler observations use.
void run_master_loop(core::SchedulerCore& sched, core::ResultMerger& merger,
                     net::Channel<net::MasterMsg>& inbox,
                     const std::vector<SlaveLink*>& links,
                     const Timer& clock, const MasterLoopConfig& config,
                     const MasterLoopCounters& counters,
                     obs::TraceLane* master_lane, RunReport& report);

}  // namespace swh::runtime
