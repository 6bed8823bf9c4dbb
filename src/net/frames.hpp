#pragma once

// Message I/O over a StreamTransport. send_msg encodes one message and
// writes it as a frame; FrameReceiver is a reader thread that decodes
// frames into a net::Channel. Each end of a socket link is therefore a
// plain Channel inbox filled by a FrameReceiver, plus send_msg toward
// the peer, so everything layered on Channel — observer depth gauges,
// seeded ChannelFaults injection, delivery delay — works unchanged when
// master and slaves are separate OS processes.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "net/messages.hpp"
#include "net/stream.hpp"
#include "net/wire.hpp"
#include "util/check.hpp"

namespace swh::net {

/// Encodes `msg` — a MasterMsg, SlaveMsg, wire::Hello or wire::Welcome —
/// and writes it as one frame: the one place a message becomes bytes on
/// a socket. Returns false when the link is (or just became) broken or
/// shut down; the message is then lost, as on a real network, and the
/// liveness machinery recovers.
template <typename Msg>
bool send_msg(StreamTransport& transport, const Msg& msg) {
    std::vector<std::uint8_t> frame;
    wire::encode(msg, frame);
    return transport.send_frame(frame);
}

/// Reader-thread pump: frames off `transport`, decoded as `Msg`
/// (MasterMsg or SlaveMsg), into an existing Channel sink. One malformed
/// frame poisons the transport (reason in last_error()) and stops the
/// pump — the connection dies, the process does not, and the liveness
/// machinery takes it from there.
///
/// The master runs one pump per slave link into the SHARED master inbox
/// with `close_sink_on_exit = false` (one slave's EOF must not close the
/// others' channel); a slave closes its private inbox at EOF, so recv()
/// drains then returns nullopt, exactly like the in-process close/drain
/// contract.
template <typename Msg>
class FrameReceiver {
    static_assert(std::is_same_v<Msg, MasterMsg> ||
                      std::is_same_v<Msg, SlaveMsg>,
                  "frames decode into MasterMsg or SlaveMsg");

public:
    /// Pre-queue admission check (e.g. the master validating a decoded
    /// PeId before it can reach SWH_CHECK in the scheduler). Rejected
    /// frames are counted, not fatal.
    using Filter = std::function<bool(const Msg&)>;

    FrameReceiver(std::shared_ptr<StreamTransport> transport,
                  Channel<Msg>& sink, bool close_sink_on_exit,
                  Filter accept = {})
        : transport_(std::move(transport)),
          sink_(sink),
          close_sink_on_exit_(close_sink_on_exit),
          accept_(std::move(accept)) {
        SWH_CHECK(transport_ != nullptr, "receiver requires a transport");
        reader_ = std::thread([this] { run(); });
    }

    ~FrameReceiver() { stop(); }

    FrameReceiver(const FrameReceiver&) = delete;
    FrameReceiver& operator=(const FrameReceiver&) = delete;

    /// Shuts the transport down (unblocking the reader) and joins it.
    /// Idempotent; after stop() the sink holds every frame that made it.
    void stop() {
        transport_->shutdown();
        if (reader_.joinable()) reader_.join();
    }

    /// Frames the admission filter refused.
    std::size_t rejected() const { return rejected_.load(); }

private:
    static std::optional<Msg> decode(const std::vector<std::uint8_t>& body,
                                     std::string* why) {
        if constexpr (std::is_same_v<Msg, MasterMsg>) {
            return wire::decode_master(body.data(), body.size(), why);
        } else {
            return wire::decode_slave(body.data(), body.size(), why);
        }
    }

    void run() {
        while (true) {
            auto body = transport_->recv_frame();
            if (!body.has_value()) break;
            std::string why;
            auto msg = decode(*body, &why);
            if (!msg.has_value()) {
                transport_->fail("decode: " + why);
                break;
            }
            if (accept_ && !accept_(*msg)) {
                ++rejected_;
                continue;
            }
            sink_.send(std::move(*msg));
        }
        if (close_sink_on_exit_) sink_.close();
    }

    std::shared_ptr<StreamTransport> transport_;
    Channel<Msg>& sink_;
    const bool close_sink_on_exit_;
    const Filter accept_;
    std::atomic<std::size_t> rejected_{0};
    std::thread reader_;
};

}  // namespace swh::net
