#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace swh::net {
namespace {

// encode() appends a complete frame: u32 LE body_len, then the body the
// decoders take. These helpers split one encoded frame back apart.
std::uint32_t frame_len(const std::vector<std::uint8_t>& frame) {
    EXPECT_GE(frame.size(), 4u);
    std::uint32_t len = 0;
    std::memcpy(&len, frame.data(), 4);  // test host is little-endian
    return len;
}

const std::uint8_t* body(const std::vector<std::uint8_t>& frame) {
    return frame.data() + 4;
}

std::size_t body_size(const std::vector<std::uint8_t>& frame) {
    return frame.size() - 4;
}

template <typename Msg>
std::vector<std::uint8_t> encode_one(const Msg& msg) {
    std::vector<std::uint8_t> frame;
    wire::encode(msg, frame);
    EXPECT_EQ(frame_len(frame), body_size(frame))
        << "length prefix must cover exactly the body";
    EXPECT_LE(body_size(frame), wire::kMaxFrameBytes);
    return frame;
}

MasterMsg roundtrip_master(const MasterMsg& msg) {
    const auto frame = encode_one(msg);
    std::string why;
    auto decoded = wire::decode_master(body(frame), body_size(frame), &why);
    EXPECT_TRUE(decoded.has_value()) << why;
    return *decoded;
}

SlaveMsg roundtrip_slave(const SlaveMsg& msg) {
    const auto frame = encode_one(msg);
    std::string why;
    auto decoded = wire::decode_slave(body(frame), body_size(frame), &why);
    EXPECT_TRUE(decoded.has_value()) << why;
    return *decoded;
}

// Every MasterMsg alternative survives encode -> decode bit-exactly,
// including negative scores (two's complement on the wire) and an empty
// hit list.
TEST(Wire, RoundTripEveryMasterAlternative) {
    {
        const auto m = roundtrip_master(
            MsgRegister{7, core::PeKind::Gpu});
        const auto& r = std::get<MsgRegister>(m);
        EXPECT_EQ(r.pe, 7u);
        EXPECT_EQ(r.kind, core::PeKind::Gpu);
    }
    {
        const auto m = roundtrip_master(MsgWorkRequest{3});
        EXPECT_EQ(std::get<MsgWorkRequest>(m).pe, 3u);
    }
    {
        const auto m = roundtrip_master(MsgProgress{2, 1.25e9});
        const auto& p = std::get<MsgProgress>(m);
        EXPECT_EQ(p.pe, 2u);
        EXPECT_EQ(p.cells_per_second, 1.25e9);
    }
    {
        core::TaskResult result;
        result.task = 41;
        result.query_index = 5;
        result.cells = 0x1122334455667788ULL;
        result.hits = {{9, 250}, {0, 0}, {123456, -17}};
        const auto m = roundtrip_master(MsgTaskDone{1, 41, result});
        const auto& d = std::get<MsgTaskDone>(m);
        EXPECT_EQ(d.pe, 1u);
        EXPECT_EQ(d.task, 41u);
        EXPECT_EQ(d.result.task, result.task);
        EXPECT_EQ(d.result.query_index, result.query_index);
        EXPECT_EQ(d.result.cells, result.cells);
        EXPECT_EQ(d.result.hits, result.hits);
    }
    {
        core::TaskResult empty;
        const auto m = roundtrip_master(MsgTaskDone{0, 0, empty});
        EXPECT_TRUE(std::get<MsgTaskDone>(m).result.hits.empty());
    }
    {
        const auto m = roundtrip_master(MsgDeregister{6});
        EXPECT_EQ(std::get<MsgDeregister>(m).pe, 6u);
    }
    {
        const auto m = roundtrip_master(MsgHeartbeat{4});
        EXPECT_EQ(std::get<MsgHeartbeat>(m).pe, 4u);
    }
    {
        const auto m = roundtrip_master(
            MsgTaskFailed{2, 99, "engine exploded: code 7"});
        const auto& f = std::get<MsgTaskFailed>(m);
        EXPECT_EQ(f.pe, 2u);
        EXPECT_EQ(f.task, 99u);
        EXPECT_EQ(f.what, "engine exploded: code 7");
    }
}

TEST(Wire, RoundTripEverySlaveAlternative) {
    {
        const auto m = roundtrip_slave(MsgAssign{
            {{1, 0, 1000}, {2, 1, 2000}, {0xFFFFFFFF, 0xFFFFFFFF,
              std::numeric_limits<std::uint64_t>::max()}}});
        const auto& a = std::get<MsgAssign>(m);
        ASSERT_EQ(a.tasks.size(), 3u);
        EXPECT_EQ(a.tasks[1].id, 2u);
        EXPECT_EQ(a.tasks[1].query_index, 1u);
        EXPECT_EQ(a.tasks[1].cells, 2000u);
        EXPECT_EQ(a.tasks[2].cells,
                  std::numeric_limits<std::uint64_t>::max());
    }
    {
        const auto m = roundtrip_slave(MsgAssign{{}});
        EXPECT_TRUE(std::get<MsgAssign>(m).tasks.empty());
    }
    {
        const auto m = roundtrip_slave(MsgNoWorkYet{});
        EXPECT_TRUE(std::holds_alternative<MsgNoWorkYet>(m));
    }
    {
        const auto m = roundtrip_slave(MsgShutdown{});
        EXPECT_TRUE(std::holds_alternative<MsgShutdown>(m));
    }
}

TEST(Wire, RoundTripHandshake) {
    const wire::Hello hello{core::PeKind::Gpu, "gpu-node-3"};
    const auto hframe = encode_one(hello);
    std::string why;
    auto h = wire::decode_hello(body(hframe), body_size(hframe), &why);
    ASSERT_TRUE(h.has_value()) << why;
    EXPECT_EQ(*h, hello);

    wire::Welcome welcome;
    welcome.pe = 2;
    welcome.top_k = 25;
    welcome.notify_period_s = 0.125;
    welcome.heartbeat_period_s = 0.0625;
    welcome.liveness = true;
    const auto wframe = encode_one(welcome);
    auto w = wire::decode_welcome(body(wframe), body_size(wframe), &why);
    ASSERT_TRUE(w.has_value()) << why;
    EXPECT_EQ(*w, welcome);
}

// The decode-time string bound (ISSUE 10 satellite): a hostile or buggy
// MsgTaskFailed::what cannot balloon master memory — both the encoder
// and the decoder clamp at kMaxStringBytes with the marker appended.
TEST(Wire, OversizedWhatIsBoundedWithMarker) {
    const std::string huge(3 * wire::kMaxStringBytes, 'x');
    const auto m = roundtrip_master(MsgTaskFailed{0, 1, huge});
    const std::string& got = std::get<MsgTaskFailed>(m).what;
    EXPECT_EQ(got.size(), wire::kMaxStringBytes);
    const std::string marker = wire::kTruncationMarker;
    ASSERT_GT(got.size(), marker.size());
    EXPECT_EQ(got.substr(got.size() - marker.size()), marker);
    EXPECT_EQ(got.substr(0, 16), huge.substr(0, 16));

    // Exactly at the bound: no truncation, no marker.
    const std::string fits(wire::kMaxStringBytes, 'y');
    const auto m2 = roundtrip_master(MsgTaskFailed{0, 1, fits});
    EXPECT_EQ(std::get<MsgTaskFailed>(m2).what, fits);
}

// Strictness sweep: EVERY strict prefix of every alternative's body is
// rejected (truncation can never silently yield a shorter message), and
// one trailing byte is rejected too.
TEST(Wire, TruncatedAndPaddedBodiesAreRejected) {
    std::vector<std::vector<std::uint8_t>> frames;
    for (const MasterMsg& m : std::vector<MasterMsg>{
             MsgRegister{1, core::PeKind::SseCore}, MsgWorkRequest{1},
             MsgProgress{1, 2.0},
             MsgTaskDone{1, 2, core::TaskResult{2, 0, 10, {{3, 4}}}},
             MsgDeregister{1}, MsgHeartbeat{1},
             MsgTaskFailed{1, 2, "boom"}}) {
        frames.push_back(encode_one(m));
    }
    for (const SlaveMsg& m : std::vector<SlaveMsg>{
             MsgAssign{{{1, 0, 100}}}, MsgNoWorkYet{}, MsgShutdown{}}) {
        frames.push_back(encode_one(m));
    }
    for (const auto& frame : frames) {
        const std::uint8_t tag = frame[5];
        const bool is_master = tag < 0x20;
        for (std::size_t cut = 0; cut < body_size(frame); ++cut) {
            std::string why;
            const bool ok =
                is_master
                    ? wire::decode_master(body(frame), cut, &why).has_value()
                    : wire::decode_slave(body(frame), cut, &why).has_value();
            EXPECT_FALSE(ok) << "tag " << int(tag) << " prefix " << cut
                             << " of " << body_size(frame);
            EXPECT_FALSE(why.empty());
        }
        std::vector<std::uint8_t> padded(body(frame),
                                         body(frame) + body_size(frame));
        padded.push_back(0);
        std::string why;
        const bool ok =
            is_master
                ? wire::decode_master(padded.data(), padded.size(), &why)
                      .has_value()
                : wire::decode_slave(padded.data(), padded.size(), &why)
                      .has_value();
        EXPECT_FALSE(ok) << "trailing byte accepted for tag " << int(tag);
    }
}

TEST(Wire, BadVersionRejected) {
    auto frame = encode_one(MasterMsg{MsgHeartbeat{1}});
    frame[4] = wire::kWireVersion + 1;
    std::string why;
    EXPECT_FALSE(
        wire::decode_master(body(frame), body_size(frame), &why).has_value());
    EXPECT_NE(why.find("version"), std::string::npos) << why;
}

TEST(Wire, UnknownAndCrossDirectionTagsRejected) {
    auto frame = encode_one(MasterMsg{MsgHeartbeat{1}});
    frame[5] = 0xFF;
    std::string why;
    EXPECT_FALSE(
        wire::decode_master(body(frame), body_size(frame), &why).has_value());

    // A slave-bound frame handed to the master decoder (mis-wired
    // endpoint) fails at the tag, not by misparsing the payload.
    const auto shutdown = encode_one(SlaveMsg{MsgShutdown{}});
    EXPECT_FALSE(
        wire::decode_master(body(shutdown), body_size(shutdown), &why)
            .has_value());
    EXPECT_NE(why.find("tag"), std::string::npos) << why;
    // 0x43, the retired replica-cancel order, is an unknown tag now.
    auto retired = shutdown;
    retired[5] = 0x43;
    why.clear();
    EXPECT_FALSE(wire::decode_slave(body(retired), body_size(retired), &why)
                     .has_value());
    EXPECT_NE(why.find("tag"), std::string::npos) << why;
    const auto reg =
        encode_one(MasterMsg{MsgRegister{0, core::PeKind::SseCore}});
    EXPECT_FALSE(
        wire::decode_slave(body(reg), body_size(reg), &why).has_value());
    // Handshake tags are not valid inside either stream.
    const auto hello = encode_one(wire::Hello{core::PeKind::SseCore, "x"});
    EXPECT_FALSE(wire::decode_master(body(hello), body_size(hello), &why)
                     .has_value());
    EXPECT_FALSE(wire::decode_slave(body(hello), body_size(hello), &why)
                     .has_value());
}

// A forged element count must be rejected by comparison against the
// bytes actually present — before any allocation happens.
TEST(Wire, ForgedVectorCountRejected) {
    auto frame = encode_one(SlaveMsg{MsgAssign{{{1, 0, 100}}}});
    // Body: version u8, tag u8, then the task count u32 at offset 2.
    const std::uint32_t forged = 0x00FFFFFF;
    std::memcpy(frame.data() + 4 + 2, &forged, 4);
    std::string why;
    EXPECT_FALSE(
        wire::decode_slave(body(frame), body_size(frame), &why).has_value());
    EXPECT_FALSE(why.empty());

    auto done = encode_one(
        MasterMsg{MsgTaskDone{1, 2, core::TaskResult{2, 0, 10, {{3, 4}}}}});
    // Body: version, tag, pe u32, task u32, result{task u32, query u32,
    // cells u64} -> hit count u32 at offset 2 + 4 + 4 + 4 + 4 + 8 = 26.
    std::memcpy(done.data() + 4 + 26, &forged, 4);
    EXPECT_FALSE(
        wire::decode_master(body(done), body_size(done), &why).has_value());
}

TEST(Wire, NonFiniteDoubleRejected) {
    for (const std::uint64_t bits :
         {0x7FF0000000000000ULL,    // +inf
          0xFFF0000000000000ULL,    // -inf
          0x7FF8000000000000ULL}) {  // quiet NaN
        auto frame = encode_one(MasterMsg{MsgProgress{1, 1.0}});
        // Body: version, tag, pe u32 -> f64 at offset 6.
        std::memcpy(frame.data() + 4 + 6, &bits, 8);
        std::string why;
        EXPECT_FALSE(wire::decode_master(body(frame), body_size(frame), &why)
                         .has_value());
        EXPECT_NE(why.find("finite"), std::string::npos) << why;
    }
}

TEST(Wire, OutOfRangeEnumBytesRejected) {
    auto reg = encode_one(MasterMsg{MsgRegister{1, core::PeKind::Gpu}});
    // Body: version, tag, pe u32, kind u8 at offset 6.
    reg[4 + 6] = 2;  // one past PeKind::Gpu
    std::string why;
    EXPECT_FALSE(
        wire::decode_master(body(reg), body_size(reg), &why).has_value());

    wire::Welcome welcome;
    auto w = encode_one(welcome);
    // Body: version, tag, pe u32, top_k u32, two f64s, liveness u8 at
    // offset 2 + 4 + 4 + 8 + 8 = 26.
    w[4 + 26] = 2;  // bool must be exactly 0 or 1
    EXPECT_FALSE(
        wire::decode_welcome(body(w), body_size(w), &why).has_value());
}

TEST(Wire, BadHelloMagicRejected) {
    auto frame = encode_one(wire::Hello{core::PeKind::SseCore, "peer"});
    frame[4 + 2] ^= 0x5A;  // corrupt the magic (offset 2, after ver+tag)
    std::string why;
    EXPECT_FALSE(
        wire::decode_hello(body(frame), body_size(frame), &why).has_value());
    EXPECT_NE(why.find("magic"), std::string::npos) << why;
}

// Wire stability: the encoding is a protocol, not an implementation
// detail. Golden bytes for one representative message; if this breaks,
// kWireVersion must be bumped.
TEST(Wire, GoldenHeartbeatFrame) {
    const auto frame = encode_one(MasterMsg{MsgHeartbeat{0x01020304}});
    const std::vector<std::uint8_t> expected = {
        0x06, 0x00, 0x00, 0x00,  // body_len = 6
        0x01,                    // version
        0x06,                    // Tag::kHeartbeat
        0x04, 0x03, 0x02, 0x01,  // pe, little-endian
    };
    EXPECT_EQ(frame, expected);
}

}  // namespace
}  // namespace swh::net
