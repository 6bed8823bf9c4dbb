#pragma once

// The master side of one run, for either transport: the scheduler, the
// result merger, the master inbox with its injected faults, the master
// telemetry (trace epoch, the "master" and "chan:master" lanes,
// SchedTracer, the inbox ChannelTracer), MasterProtocol and the
// wall-clock pump that drives it. HybridRuntime and RemoteMaster keep
// only their transports: they feed inbox(), hand pump() one SlaveLink per
// PE, stop the transport and then call finish().

#include <cstdint>
#include <memory>
#include <vector>

#include "align/sequence.hpp"
#include "core/policy.hpp"
#include "core/results.hpp"
#include "core/scheduler.hpp"
#include "net/channel.hpp"
#include "net/messages.hpp"
#include "obs/sched_log.hpp"
#include "obs/tracers.hpp"
#include "runtime/hybrid_runtime.hpp"
#include "runtime/master_protocol.hpp"
#include "util/timer.hpp"

namespace swh::runtime {

/// The pump's downlink to one slave. The threaded runtime backs it with
/// the slave's shared-inbox Channel; the socket runtime encodes frames
/// onto that slave's connection.
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

class MasterHost {
public:
    /// Sets up the master of a run of `queries` against `db_residues`
    /// residues on `slaves` PEs. Re-zeroes the trace epoch and starts the
    /// run clock; throws ContractError on inconsistent `options`.
    MasterHost(const std::vector<align::Sequence>& queries,
               std::uint64_t db_residues,
               std::unique_ptr<core::AllocationPolicy> policy,
               std::size_t slaves, const RuntimeOptions& options);
    MasterHost(const MasterHost&) = delete;
    MasterHost& operator=(const MasterHost&) = delete;

    /// The shared inbox every slave's uplink feeds.
    net::Channel<net::MasterMsg>& inbox() { return inbox_; }

    /// Feeds the protocol every inbox message, wakes it at its
    /// next_deadline() and carries its replies out over `links`
    /// (index = PeId). Returns once every slave is finished.
    void pump(const std::vector<std::unique_ptr<SlaveLink>>& links);

    /// Closes the run once the transport has stopped: the protocol's
    /// report plus wall_seconds, gcups, hits, obs.trace.dropped and the
    /// metrics snapshot. Slave-side stats are the caller's.
    RunReport finish();

private:
    const std::size_t query_count_;
    obs::TraceRecorder* const trace_;
    obs::MetricsRegistry* const metrics_;
    core::SchedulerCore sched_;
    core::ResultMerger merger_;
    net::Channel<net::MasterMsg> inbox_;
    /// One lane shared by the scheduler tracer and the protocol's fault
    /// events (TraceRecorder::lane() creates a fresh lane per call).
    obs::TraceLane* const master_lane_;
    obs::SchedTracer sched_tracer_;
    obs::SchedFanout sched_fanout_;
    obs::ChannelTracer inbox_tracer_;
    MasterProtocol protocol_;
    Timer clock_;
};

}  // namespace swh::runtime
