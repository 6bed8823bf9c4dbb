#pragma once

// Wire codec for the Msg* protocol (ISSUE 10): a versioned,
// length-prefixed binary framing so master and slaves can run as
// separate OS processes over sockets/pipes — the paper's Gigabit-
// Ethernet deployment — instead of an in-process queue.
//
// Frame layout (all integers little-endian, no padding):
//
//     u32  body_len          2 <= body_len <= kMaxFrameBytes
//     u8   version           kWireVersion; anything else is rejected
//     u8   tag               message alternative (Tag below)
//     ...  payload           fixed-width LE fields per alternative
//
// Variable-size fields inside a payload:
//   * strings:  u32 byte length + raw bytes. Decoding bounds every
//     string at kMaxStringBytes — longer payloads keep a prefix plus
//     kTruncationMarker, and the excess is skipped, so one hostile
//     frame cannot balloon master memory (ISSUE 10 satellite).
//   * vectors:  u32 element count + fixed-width elements. The count is
//     validated against the bytes actually remaining in the frame
//     BEFORE any allocation, so a forged count cannot force an
//     oversized reserve.
//
// Decoding is strict: truncated payloads, trailing bytes, unknown
// tags, bad versions, non-finite doubles, and out-of-range enum bytes
// all reject the frame (nullopt + reason). A peer that emits one
// malformed frame is treated like a dead link — the transport drops
// the connection and the liveness machinery takes it from there.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "net/messages.hpp"

namespace swh::net::wire {

/// Bumped on any incompatible change to the frame or payload layout.
constexpr std::uint8_t kWireVersion = 1;

/// Hard cap on one frame body. A length prefix above this is a protocol
/// error — the transport rejects it without reading (or buffering) the
/// body. 1 MiB comfortably fits the largest legitimate message (a
/// MsgTaskDone carrying ~131k hits or a MsgAssign of ~65k tasks).
constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Per-string decode bound; longer strings are truncated with
/// kTruncationMarker appended (total stays exactly kMaxStringBytes).
constexpr std::size_t kMaxStringBytes = 4096;

/// Appended to a decoded string that hit kMaxStringBytes.
inline constexpr const char* kTruncationMarker = "...[truncated]";

/// Hello magic ("SWH1" little-endian): the first payload field a slave
/// sends, so a stray connection from something that is not a swhybrid
/// slave is rejected before any state is allocated for it.
constexpr std::uint32_t kHelloMagic = 0x31485753u;

/// Message alternative tags. Master<-slave and master->slave live in
/// disjoint ranges so a mis-wired endpoint fails loudly at decode.
enum class Tag : std::uint8_t {
    // Slave -> master (MasterMsg alternatives).
    kRegister = 0x01,
    kWorkRequest = 0x02,
    kProgress = 0x03,
    kTaskDone = 0x04,
    kDeregister = 0x05,
    kHeartbeat = 0x06,
    kTaskFailed = 0x07,
    // Handshake (ISSUE 10 bootstrap; see runtime/remote.hpp).
    kHello = 0x20,
    kWelcome = 0x21,
    // Master -> slave (SlaveMsg alternatives).
    kAssign = 0x41,
    kNoWorkYet = 0x42,
    // 0x43 was a replica-cancel order; retired, decoders reject it.
    kShutdown = 0x44,
};

// ---- Handshake payloads -------------------------------------------------

/// Slave -> master connection preamble: proves the peer speaks this
/// protocol and carries the reporting metadata the in-process runtime
/// would have taken from SlaveSpec.
struct Hello {
    core::PeKind kind = core::PeKind::SseCore;
    std::string label;

    friend bool operator==(const Hello&, const Hello&) = default;
};

/// Master -> slave handshake reply: the assigned PeId plus the protocol
/// options both sides must agree on (pushed from the master so the two
/// processes cannot silently diverge).
struct Welcome {
    core::PeId pe = 0;
    std::uint32_t top_k = 10;
    double notify_period_s = 0.2;
    double heartbeat_period_s = 0.05;
    bool liveness = false;

    friend bool operator==(const Welcome&, const Welcome&) = default;
};

// ---- Encoding -----------------------------------------------------------

// Appends one complete frame (length prefix included) to `out`.
void encode(const MasterMsg& msg, std::vector<std::uint8_t>& out);
void encode(const SlaveMsg& msg, std::vector<std::uint8_t>& out);
void encode(const Hello& hello, std::vector<std::uint8_t>& out);
void encode(const Welcome& welcome, std::vector<std::uint8_t>& out);

// ---- Decoding -----------------------------------------------------------

// Decodes one frame BODY (the bytes after the u32 length prefix; the
// transport has already validated body_len <= kMaxFrameBytes). Returns
// nullopt on any malformed input; `error`, when non-null, receives a
// one-line reason.
std::optional<MasterMsg> decode_master(const std::uint8_t* body,
                                       std::size_t size,
                                       std::string* error = nullptr);
std::optional<SlaveMsg> decode_slave(const std::uint8_t* body,
                                     std::size_t size,
                                     std::string* error = nullptr);
std::optional<Hello> decode_hello(const std::uint8_t* body, std::size_t size,
                                  std::string* error = nullptr);
std::optional<Welcome> decode_welcome(const std::uint8_t* body,
                                      std::size_t size,
                                      std::string* error = nullptr);

}  // namespace swh::net::wire
