#pragma once

#include <string>
#include <variant>
#include <vector>

#include "core/results.hpp"
#include "core/types.hpp"

namespace swh::net {

// ---- Slave -> master ----------------------------------------------------

struct MsgRegister {
    core::PeId pe;
    core::PeKind kind;

    friend bool operator==(const MsgRegister&, const MsgRegister&) = default;
};

struct MsgWorkRequest {
    core::PeId pe;

    friend bool operator==(const MsgWorkRequest&, const MsgWorkRequest&) = default;
};

/// Periodic progress notification (paper SS IV-A.2): the observed
/// processing speed since the previous notification.
struct MsgProgress {
    core::PeId pe;
    double cells_per_second;

    friend bool operator==(const MsgProgress&, const MsgProgress&) = default;
};

struct MsgTaskDone {
    core::PeId pe;
    core::TaskId task;
    core::TaskResult result;

    friend bool operator==(const MsgTaskDone&, const MsgTaskDone&) = default;
};

/// Node-leave announcement (future-work extension).
struct MsgDeregister {
    core::PeId pe;

    friend bool operator==(const MsgDeregister&, const MsgDeregister&) = default;
};

/// Idle liveness beacon: sent while a slave is parked waiting for work,
/// so the master can tell a starved-but-alive PE from a dead one. Busy
/// slaves piggyback liveness on MsgProgress instead; any message from a
/// PE refreshes its liveness deadline.
struct MsgHeartbeat {
    core::PeId pe;

    friend bool operator==(const MsgHeartbeat&, const MsgHeartbeat&) = default;
};

/// Engine-failure report: executing `task` raised `what` instead of
/// completing. The slave stays up and moves on; the master requeues the
/// task under a bounded per-task retry budget with backoff.
struct MsgTaskFailed {
    core::PeId pe;
    core::TaskId task;
    std::string what;

    friend bool operator==(const MsgTaskFailed&, const MsgTaskFailed&) = default;
};

using MasterMsg = std::variant<MsgRegister, MsgWorkRequest, MsgProgress,
                               MsgTaskDone, MsgDeregister, MsgHeartbeat,
                               MsgTaskFailed>;

// ---- Master -> slave ----------------------------------------------------

struct MsgAssign {
    std::vector<core::Task> tasks;  ///< execution order, with metadata

    friend bool operator==(const MsgAssign&, const MsgAssign&) = default;
};

/// Nothing to hand out right now; the master will push an Assign (or a
/// Shutdown) when the situation changes. The slave must block, not poll.
struct MsgNoWorkYet {
    friend bool operator==(const MsgNoWorkYet&, const MsgNoWorkYet&) = default;
};

/// All tasks finished; the slave should exit.
struct MsgShutdown {
    friend bool operator==(const MsgShutdown&, const MsgShutdown&) = default;
};

using SlaveMsg = std::variant<MsgAssign, MsgNoWorkYet, MsgShutdown>;

}  // namespace swh::net
