#pragma once

// Protocol loop of one slave PE, shared by an in-process slave thread
// and a swhybrid_slave OS process over the socket transport: work
// requests, progress notifications, cancellation polling,
// engine-failure containment, heartbeats. The loop reads its own
// net::Channel inbox in both; the transports differ only in how a
// message reaches the peer's channel — the uplink callable here, and
// SlaveLink on the master side (runtime/master_host.hpp).

#include <cstdint>
#include <functional>
#include <vector>

#include "align/sequence.hpp"
#include "db/database.hpp"
#include "engines/engine.hpp"
#include "net/channel.hpp"
#include "net/messages.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/hybrid_runtime.hpp"

namespace swh::runtime {

/// Sends one message to the master. Called from the slave thread and,
/// for progress notes, from the engine's polling threads.
using Uplink = std::function<void(net::MasterMsg)>;

/// How a slave's session ended.
enum class SlaveExit : std::uint8_t {
    Shutdown,    ///< the master's MsgShutdown arrived
    Left,        ///< leave_after_tasks reached; sent MsgDeregister
    Crashed,     ///< engines::SimulatedCrash: vanished mid-task
    LinkClosed,  ///< the inbox closed without a Shutdown in it: the
                 ///< master abandoned this slave or the link dropped
};

struct SlaveLoopConfig {
    core::PeId pe = 0;
    double notify_period_s = 0.2;
    /// When true the loop beacons MsgHeartbeat every heartbeat_period_s
    /// while idle-blocked (and re-sends its registration until the
    /// master has spoken to it at all); when false idle waits block
    /// indefinitely — the original immortal-slave behaviour.
    bool liveness = false;
    double heartbeat_period_s = 0.05;
    /// After this many accepted completions the slave deregisters,
    /// abandoning whatever is queued (0 = stays to the end).
    std::size_t leave_after_tasks = 0;
    obs::TraceLane* lane = nullptr;
    obs::Histogram* duration_hist = nullptr;
};

/// Runs the slave protocol to completion: register, request work,
/// execute, report, until MsgShutdown / early leave / a closed inbox.
/// Engine exceptions become MsgTaskFailed (the loop survives them);
/// engines::SimulatedCrash makes the loop vanish silently with
/// report.crashed set, exactly like a dead process.
SlaveExit run_slave_loop(net::Channel<net::SlaveMsg>& inbox,
                         const Uplink& uplink, engines::ComputeEngine& engine,
                         const std::vector<align::Sequence>& queries,
                         const db::Database& database,
                         const SlaveLoopConfig& config, SlaveReport& report);

}  // namespace swh::runtime
