#pragma once

// Multi-process master/slave bootstrap over the socket transport.
// RemoteMaster accepts slave connections, handshakes them (Hello ->
// Welcome), then hands the run to the MasterHost the threaded runtime
// uses (runtime/master_host.hpp); run_remote_slave connects, handshakes
// and drives the same run_slave_loop. The scheduler, the fault
// machinery, the result merging and the master telemetry are one code
// path for both transports — only the links behind the master inbox
// differ — which is what keeps the socket run bit-identical in top-k to
// the in-process runtime.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "align/sequence.hpp"
#include "core/policy.hpp"
#include "db/database.hpp"
#include "engines/engine.hpp"
#include "net/stream.hpp"
#include "net/wire.hpp"
#include "runtime/hybrid_runtime.hpp"

namespace swh::runtime {

struct RemoteMasterOptions {
    /// The same knob set the threaded runtime takes; top_k /
    /// notify_period_s / heartbeat_period_s / liveness are pushed to
    /// every slave in its Welcome so the processes cannot diverge.
    /// channel_delay_s and master_link_faults apply to the master's
    /// inbox exactly as in-process (the frames pass through a real
    /// net::Channel after decode). sched_observer is not forwarded: the
    /// scheduler's decisions reach trace/metrics through the master
    /// host's SchedTracer, and perfbench replays the "master" lane into
    /// its own observer, so forwarding it would count each event twice.
    RuntimeOptions runtime;
    /// TCP port to listen on (loopback); 0 picks a free port — read it
    /// back from listen().
    std::uint16_t port = 0;
    /// The run starts once this many slaves have handshaken.
    std::size_t expect_slaves = 1;
    /// Give up on missing slaves after this long (IoError).
    double accept_timeout_s = 30.0;
};

/// Master side of the multi-process runtime. Usage: construct, call
/// listen() (so slaves have a port to dial), start the slave processes,
/// then run().
class RemoteMaster {
public:
    RemoteMaster(const db::Database& database,
                 std::vector<align::Sequence> queries,
                 RemoteMasterOptions options);
    ~RemoteMaster();

    /// Binds + listens on loopback and returns the bound port.
    std::uint16_t listen();

    /// Accepts and handshakes expect_slaves connections, assigns PeIds
    /// in connection order, and blocks in the shared master host until
    /// every task is finished and every slave has exited. RunReport
    /// carries the master-side view; slave-side stats (cells computed,
    /// cancellations survived) live in each slave process's own report.
    RunReport run(std::unique_ptr<core::AllocationPolicy> policy);

private:
    const db::Database* database_;
    std::vector<align::Sequence> queries_;
    RemoteMasterOptions options_;
    net::Socket listener_;
    bool listening_ = false;
};

struct RemoteSlaveOptions {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Reporting metadata sent in the Hello (must match the engine the
    /// factory builds).
    std::string label = "remote";
    core::PeKind kind = core::PeKind::SseCore;
    /// Keeps redialling until the master's listener appears.
    double connect_timeout_s = 10.0;
    /// Fault injection on this slave's inbound (master->slave) queue —
    /// the socket equivalent of RuntimeOptions::slave_link_stall_s.
    double inbox_stall_s = 0.0;
    double inbox_delay_s = 0.0;
};

struct RemoteSlaveResult {
    bool connected = false;
    /// Set when the session ended abnormally (handshake refused, link
    /// error); empty on a clean shutdown.
    std::string error;
    /// The master's handshake reply (valid when connected).
    net::wire::Welcome welcome;
    SlaveReport report;
};

/// Builds the engine AFTER the handshake, so options the master owns
/// (top_k above all) reach the engine config instead of diverging.
using RemoteEngineFactory =
    std::function<std::unique_ptr<engines::ComputeEngine>(
        const net::wire::Welcome&)>;

/// Slave side of the multi-process runtime: dial, handshake, run the
/// shared slave loop until shutdown or abandonment, report.
RemoteSlaveResult run_remote_slave(
    const db::Database& database,
    const std::vector<align::Sequence>& queries,
    const RemoteSlaveOptions& options, const RemoteEngineFactory& factory);

}  // namespace swh::runtime
