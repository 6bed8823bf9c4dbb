#include "runtime/remote.hpp"

#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "net/remote_channel.hpp"
#include "runtime/master_host.hpp"
#include "runtime/slave_loop.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace swh::runtime {

using core::PeId;

namespace {

/// Master's downlink to one remote slave: encode onto its connection.
/// A send after the link broke is simply lost — exactly what the
/// liveness machinery is built to recover from.
class RemoteSlaveLink final : public SlaveLink {
public:
    explicit RemoteSlaveLink(std::shared_ptr<net::StreamTransport> transport)
        : transport_(std::move(transport)) {}

    void send(net::SlaveMsg msg) override {
        std::vector<std::uint8_t> frame;
        net::wire::encode(msg, frame);
        transport_->send_frame(frame);
    }

    void abandon() override {
        // Shutting the connection down is the cooperative kill: the
        // slave's FrameReceiver sees EOF and closes its inbox, which its
        // cancellation poll treats as "you're gone".
        transport_->shutdown();
    }

private:
    std::shared_ptr<net::StreamTransport> transport_;
};

/// Slave-side SlaveEndpoint over the remote channel.
class RemoteEndpoint final : public SlaveEndpoint {
public:
    explicit RemoteEndpoint(net::SlaveRemoteChannel& channel)
        : channel_(channel) {}

    void send(net::MasterMsg msg) override { channel_.send(msg); }
    std::optional<net::SlaveMsg> recv() override { return channel_.recv(); }
    std::optional<net::SlaveMsg> recv_for(double timeout_s) override {
        return channel_.recv_for(timeout_s);
    }
    std::optional<net::SlaveMsg> try_recv() override {
        return channel_.try_recv();
    }
    bool inbox_closed() override { return channel_.closed(); }
    // on_inbox_closed_exit(): over a socket a closed inbox can also mean
    // the connection dropped, so no master-initiated-drain invariant.

private:
    net::SlaveRemoteChannel& channel_;
};

}  // namespace

RemoteMaster::RemoteMaster(const db::Database& database,
                           std::vector<align::Sequence> queries,
                           RemoteMasterOptions options)
    : database_(&database),
      queries_(std::move(queries)),
      options_(std::move(options)) {
    SWH_CHECK(!queries_.empty(), "query set must be non-empty");
    SWH_CHECK_GT(options_.expect_slaves, std::size_t{0},
                 "need at least one slave");
}

RemoteMaster::~RemoteMaster() = default;

std::uint16_t RemoteMaster::listen() {
    if (!listening_) {
        listener_ = net::tcp_listen(options_.port);
        listening_ = true;
    }
    return options_.port;
}

RunReport RemoteMaster::run(std::unique_ptr<core::AllocationPolicy> policy) {
    listen();
    const std::size_t n = options_.expect_slaves;
    const RuntimeOptions& rt = options_.runtime;

    // ---- Accept + handshake ---------------------------------------------
    std::vector<std::shared_ptr<net::StreamTransport>> transports;
    std::vector<net::wire::Hello> hellos;
    Timer accept_clock;
    while (transports.size() < n) {
        const double remaining =
            options_.accept_timeout_s - accept_clock.seconds();
        if (remaining <= 0.0) {
            throw swh::IoError("timed out waiting for slaves to connect");
        }
        auto sock = net::tcp_accept(listener_, remaining);
        if (!sock.has_value()) continue;  // re-check the deadline
        auto transport =
            std::make_shared<net::StreamTransport>(std::move(*sock));
        const auto body = transport->recv_frame();
        if (!body.has_value()) continue;  // peer vanished pre-handshake
        const auto hello =
            net::wire::decode_hello(body->data(), body->size());
        if (!hello.has_value()) continue;  // not a swhybrid slave; drop
        net::wire::Welcome welcome;
        welcome.pe = static_cast<PeId>(transports.size());
        welcome.top_k = static_cast<std::uint32_t>(rt.top_k);
        welcome.notify_period_s = rt.notify_period_s;
        welcome.heartbeat_period_s = rt.heartbeat_period_s;
        welcome.liveness = rt.liveness_timeout_s > 0.0;
        std::vector<std::uint8_t> frame;
        net::wire::encode(welcome, frame);
        if (!transport->send_frame(frame)) continue;
        transports.push_back(std::move(transport));
        hellos.push_back(*hello);
    }

    // The sched_observer stays unforwarded (see RemoteMasterOptions).
    RuntimeOptions host_options = rt;
    host_options.sched_observer = nullptr;
    MasterHost host(queries_, database_->residues(), std::move(policy), n,
                    host_options);

    // One decode pump per connection into the shared inbox, a real
    // net::Channel, so delivery delay, fault injection and depth
    // observation behave exactly as in-process. The pump never closes
    // the shared sink (one slave's EOF must not close the others'
    // channel) and refuses frames whose PeId is not the one this
    // connection was welcomed as — a forged or corrupted id must not
    // reach the scheduler's contracts.
    std::vector<std::unique_ptr<net::FrameReceiver<net::MasterBound>>>
        receivers;
    std::vector<std::unique_ptr<SlaveLink>> links;
    receivers.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const PeId expected = static_cast<PeId>(i);
        receivers.push_back(
            std::make_unique<net::FrameReceiver<net::MasterBound>>(
                transports[i], host.inbox(),
                /*close_sink_on_exit=*/false,
                [expected](const net::MasterMsg& msg) {
                    return std::visit([](const auto& m) { return m.pe; },
                                      msg) == expected;
                }));
        links.push_back(std::make_unique<RemoteSlaveLink>(transports[i]));
    }

    host.pump(links);

    // End-of-run drain: every slave already got Shutdown (or was
    // abandoned); shutting the transports down unblocks the pumps so
    // their threads join.
    for (auto& transport : transports) transport->shutdown();
    for (auto& receiver : receivers) receiver->stop();

    RunReport report = host.finish();
    for (std::size_t i = 0; i < n; ++i) {
        report.slaves[i].label = hellos[i].label;
        report.slaves[i].kind = hellos[i].kind;
    }
    return report;
}

RemoteSlaveResult run_remote_slave(
    const db::Database& database,
    const std::vector<align::Sequence>& queries,
    const RemoteSlaveOptions& options, const RemoteEngineFactory& factory) {
    RemoteSlaveResult result;
    result.report.label = options.label;
    result.report.kind = options.kind;

    auto sock =
        net::tcp_connect(options.host, options.port, options.connect_timeout_s);
    if (!sock.has_value()) {
        result.error = "could not connect to master";
        return result;
    }
    auto transport = std::make_shared<net::StreamTransport>(std::move(*sock));

    std::vector<std::uint8_t> frame;
    net::wire::encode(net::wire::Hello{options.kind, options.label}, frame);
    if (!transport->send_frame(frame)) {
        result.error = "handshake send failed: " + transport->last_error();
        return result;
    }
    const auto body = transport->recv_frame();
    if (!body.has_value()) {
        result.error = "handshake reply lost: " + transport->last_error();
        return result;
    }
    std::string why;
    const auto welcome =
        net::wire::decode_welcome(body->data(), body->size(), &why);
    if (!welcome.has_value()) {
        result.error = "malformed Welcome: " + why;
        return result;
    }
    result.connected = true;
    result.welcome = *welcome;

    auto engine = factory(*welcome);
    SWH_CHECK(engine != nullptr, "engine factory returned null");

    net::SlaveRemoteChannel channel(transport, options.inbox_delay_s);
    if (options.inbox_stall_s > 0.0) {
        channel.inject_faults(
            net::ChannelFaults{0.0, options.inbox_stall_s,
                               0x5EEDF00DULL + welcome->pe});
    }
    RemoteEndpoint endpoint(channel);
    SlaveLoopConfig config;
    config.pe = welcome->pe;
    config.notify_period_s = welcome->notify_period_s;
    config.liveness = welcome->liveness;
    config.heartbeat_period_s = welcome->heartbeat_period_s;
    run_slave_loop(endpoint, *engine, queries, database, config,
                   result.report);
    channel.close();
    return result;
}

}  // namespace swh::runtime
