// Message I/O over a socket: each end is a plain Channel inbox filled by
// a FrameReceiver, and send_msg writes every frame toward the peer.

#include "net/frames.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "net/channel.hpp"
#include "net/stream.hpp"
#include "net/wire.hpp"

namespace swh::net {
namespace {

// A connected pair wired like a slave process: the "slave" end's frames
// decode into its inbox through a FrameReceiver that closes it at EOF;
// the "master" end is held raw so tests can write arbitrary frames.
struct Pair {
    std::shared_ptr<StreamTransport> master;
    std::shared_ptr<StreamTransport> slave;
    Channel<SlaveMsg> inbox;
    /// Declared after `inbox`: stops reading before the inbox goes.
    std::unique_ptr<FrameReceiver<SlaveMsg>> receiver;

    Pair() {
        auto [a, b] = socket_pair();
        master = std::make_shared<StreamTransport>(std::move(a));
        slave = std::make_shared<StreamTransport>(std::move(b));
        receiver = std::make_unique<FrameReceiver<SlaveMsg>>(
            slave, inbox, /*close_sink_on_exit=*/true);
    }
};

void send_slave_msg(StreamTransport& t, const SlaveMsg& msg) {
    ASSERT_TRUE(send_msg(t, msg));
}

TEST(RemoteChannel, RoundTripBothDirections) {
    Pair p;
    // Master -> slave: frames decode into the slave's inbox.
    send_slave_msg(*p.master, MsgNoWorkYet{});
    send_slave_msg(*p.master, MsgAssign{{{7, 3, 900}}});
    auto m1 = p.inbox.recv();
    ASSERT_TRUE(m1.has_value());
    EXPECT_TRUE(std::holds_alternative<MsgNoWorkYet>(*m1));
    auto m2 = p.inbox.recv();
    ASSERT_TRUE(m2.has_value());
    ASSERT_EQ(std::get<MsgAssign>(*m2).tasks.size(), 1u);
    EXPECT_EQ(std::get<MsgAssign>(*m2).tasks[0].id, 7u);

    // Slave -> master: send_msg produces a decodable frame.
    ASSERT_TRUE(send_msg(*p.slave, MasterMsg{MsgTaskFailed{1, 9, "broke"}}));
    auto body = p.master->recv_frame();
    ASSERT_TRUE(body.has_value());
    auto decoded = wire::decode_master(body->data(), body->size());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(std::get<MsgTaskFailed>(*decoded).what, "broke");
}

// The inbound path runs through a real Channel, so the PR-5 machinery
// (depth gauges, seeded fault injection) applies to socket traffic.
TEST(RemoteChannel, ObserverSeesSocketTraffic) {
    struct Gauge : ChannelObserver {
        std::size_t sends = 0, recvs = 0;
        void on_send(std::size_t) override { ++sends; }
        void on_recv(std::size_t) override { ++recvs; }
    };
    Pair p;
    Gauge gauge;
    p.inbox.set_observer(&gauge);
    send_slave_msg(*p.master, MsgNoWorkYet{});
    send_slave_msg(*p.master, MsgShutdown{});
    ASSERT_TRUE(p.inbox.recv().has_value());
    ASSERT_TRUE(p.inbox.recv().has_value());
    EXPECT_EQ(gauge.sends, 2u);
    EXPECT_EQ(gauge.recvs, 2u);
}

TEST(RemoteChannel, InjectedDropsApplyToSocketTraffic) {
    Pair p;
    p.inbox.inject_faults({/*drop_prob=*/1.0, /*stall_s=*/0.0, 1234});
    send_slave_msg(*p.master, MsgShutdown{});
    // Deterministically dropped on delivery: never becomes visible.
    EXPECT_FALSE(p.inbox.recv_for(0.1).has_value());
    EXPECT_GE(p.inbox.dropped(), 1u);
}

// Peer EOF closes the inbox: pending messages drain, then nullopt —
// the same close/drain contract as the in-process Channel.
TEST(RemoteChannel, PeerEofDrainsThenCloses) {
    Pair p;
    send_slave_msg(*p.master, MsgAssign{{{5, 0, 100}}});
    p.master->shutdown();
    auto first = p.inbox.recv();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(std::get<MsgAssign>(*first).tasks[0].id, 5u);
    EXPECT_FALSE(p.inbox.recv().has_value());
    EXPECT_TRUE(p.inbox.closed());
}

// One malformed frame poisons the connection (decode reason preserved);
// the process survives and the channel closes like a dead link.
TEST(RemoteChannel, MalformedFramePoisonsConnection) {
    Pair p;
    // A well-framed body (valid length prefix) whose tag is garbage.
    std::vector<std::uint8_t> garbage(4);
    const std::uint32_t len = 3;
    std::memcpy(garbage.data(), &len, 4);
    garbage.insert(garbage.end(), {wire::kWireVersion, 0xEE, 1});
    ASSERT_TRUE(p.master->send_frame(garbage));
    EXPECT_FALSE(p.inbox.recv().has_value());
    EXPECT_TRUE(p.inbox.closed());
    EXPECT_NE(p.slave->last_error().find("decode"), std::string::npos)
        << p.slave->last_error();
}

// An oversized length prefix is rejected before any buffering.
// StreamTransport has no raw-write surface by design, so the broken
// peer is emulated with a bare socket.
TEST(RemoteChannel, OversizedLengthPrefixPoisonsConnection) {
    auto [a, b] = socket_pair();
    StreamTransport victim(std::move(b));
    const std::uint32_t huge = wire::kMaxFrameBytes + 1;
    std::uint8_t raw[4];
    std::memcpy(raw, &huge, 4);  // test host is little-endian
    ASSERT_EQ(::send(a.fd(), raw, sizeof raw, 0),
              static_cast<ssize_t>(sizeof raw));
    EXPECT_FALSE(victim.recv_frame().has_value());
    EXPECT_FALSE(victim.ok());
    EXPECT_NE(victim.last_error().find("length"), std::string::npos)
        << victim.last_error();
}

// A send on a shut-down link is lost, and the frame writer says so —
// the socket counterpart of a send on a closed in-process Channel.
TEST(RemoteChannel, FrameWriterReturnsFalseAfterShutdown) {
    Pair p;
    ASSERT_TRUE(send_msg(*p.slave, MasterMsg{MsgHeartbeat{0}}));
    p.slave->shutdown();
    EXPECT_FALSE(send_msg(*p.slave, MasterMsg{MsgHeartbeat{0}}));
}

// Concurrent senders may interleave frames but never tear them: every
// frame decodes, none are lost.
TEST(RemoteChannel, ConcurrentSendsDoNotTearFrames) {
    Pair p;
    constexpr int kPerThread = 200;
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&p, t] {
            for (int i = 0; i < kPerThread; ++i) {
                ASSERT_TRUE(send_msg(
                    *p.slave, MasterMsg{MsgProgress{
                                  static_cast<core::PeId>(t), 1.0 + i}}));
            }
        });
    }
    std::size_t got = 0;
    while (got < 4 * kPerThread) {
        auto body = p.master->recv_frame();
        ASSERT_TRUE(body.has_value()) << p.master->last_error();
        std::string why;
        auto msg = wire::decode_master(body->data(), body->size(), &why);
        ASSERT_TRUE(msg.has_value()) << why;
        ASSERT_TRUE(std::holds_alternative<MsgProgress>(*msg));
        ++got;
    }
    for (auto& w : writers) w.join();
}

// The master-side pump: frames from several transports feed one shared
// inbox; an admission filter rejects (and counts) impersonated PeIds.
TEST(RemoteChannel, FrameReceiverFiltersIntoSharedInbox) {
    Channel<MasterMsg> inbox;
    auto [a1, b1] = socket_pair();
    auto remote1 = std::make_shared<StreamTransport>(std::move(a1));
    StreamTransport slave1(std::move(b1));
    FrameReceiver<MasterMsg> pump(
        remote1, inbox, /*close_sink_on_exit=*/false,
        [](const MasterMsg& m) {
            return std::visit([](const auto& x) { return x.pe; }, m) == 0u;
        });
    ASSERT_TRUE(send_msg(slave1, MasterMsg{MsgHeartbeat{0}}));
    ASSERT_TRUE(send_msg(slave1, MasterMsg{MsgHeartbeat{7}}));  // impersonator
    auto msg = inbox.recv();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get<MsgHeartbeat>(*msg).pe, 0u);
    slave1.shutdown();
    pump.stop();
    EXPECT_EQ(pump.rejected(), 1u);
    // Shared inbox stays open after one pump exits.
    EXPECT_FALSE(inbox.closed());
}

TEST(RemoteChannel, TcpLoopbackConnectAndExchange) {
    std::uint16_t port = 0;
    Socket listener = tcp_listen(port);
    ASSERT_TRUE(listener.valid());
    ASSERT_NE(port, 0);
    std::thread dialler([port] {
        auto sock = tcp_connect("127.0.0.1", port, 5.0);
        ASSERT_TRUE(sock.has_value());
        StreamTransport t(std::move(*sock));
        ASSERT_TRUE(send_msg(t, MasterMsg{MsgWorkRequest{3}}));
        auto reply = t.recv_frame();
        ASSERT_TRUE(reply.has_value());
        auto msg = wire::decode_slave(reply->data(), reply->size());
        ASSERT_TRUE(msg.has_value());
        EXPECT_TRUE(std::holds_alternative<MsgShutdown>(*msg));
    });
    auto accepted = tcp_accept(listener, 5.0);
    ASSERT_TRUE(accepted.has_value());
    StreamTransport t(std::move(*accepted));
    auto body = t.recv_frame();
    ASSERT_TRUE(body.has_value());
    auto msg = wire::decode_master(body->data(), body->size());
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get<MsgWorkRequest>(*msg).pe, 3u);
    ASSERT_TRUE(send_msg(t, SlaveMsg{MsgShutdown{}}));
    dialler.join();
}

}  // namespace
}  // namespace swh::net
