#pragma once

// POSIX stream transport for the wire protocol (ISSUE 10): an RAII
// socket, loopback/TCP bootstrap helpers, and StreamTransport — framed,
// length-prefix-validated reads plus mutex-serialised writes over one
// connected stream socket. Nothing here knows about Msg* payloads; the
// codec lives in net/wire.hpp and message I/O (send_msg, FrameReceiver)
// in net/frames.hpp.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/annotations.hpp"

namespace swh::net {

/// RAII owner of one POSIX stream-socket fd. Move-only; closes on
/// destruction.
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;
    Socket(Socket&& other) noexcept : fd_(other.release()) {}
    Socket& operator=(Socket&& other) noexcept {
        if (this != &other) {
            close();
            fd_ = other.release();
        }
        return *this;
    }

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /// Half-closes both directions without releasing the fd: a blocked
    /// read on another thread returns EOF. Safe to call repeatedly.
    void shutdown_both();

    void close();

    int release() {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

private:
    int fd_ = -1;
};

/// Listens on 127.0.0.1:`port` (port 0 picks a free port; `port` is
/// updated to the bound one). Throws swh::IoError on failure.
Socket tcp_listen(std::uint16_t& port, int backlog = 16);

/// Accepts one connection, waiting up to `timeout_s`. Returns nullopt
/// on timeout.
std::optional<Socket> tcp_accept(Socket& listener, double timeout_s);

/// Connects to host:port, retrying until `timeout_s` elapses (covers
/// the slave-starts-before-master-listens race in process bringup).
std::optional<Socket> tcp_connect(const std::string& host, std::uint16_t port,
                                  double timeout_s);

/// Connected AF_UNIX pair — the in-process loopback used by tests.
std::pair<Socket, Socket> socket_pair();

/// Framed transport over one connected socket.
///
///   * send_frame serialises concurrent writers under a mutex, so a
///     heartbeat thread and the main slave loop can share a link; a
///     frame is written whole or the link is marked broken.
///   * recv_frame is single-consumer (one reader thread per link): it
///     reads the u32 length prefix, rejects body_len outside
///     [2, wire::kMaxFrameBytes] WITHOUT buffering the body, then reads
///     exactly body_len bytes.
///
/// Any I/O error, EOF, or protocol violation poisons the transport:
/// ok() turns false, subsequent sends become silent failures (the
/// caller's drop accounting sees them), and recv_frame returns nullopt.
class StreamTransport {
public:
    explicit StreamTransport(Socket sock);
    ~StreamTransport();

    StreamTransport(const StreamTransport&) = delete;
    StreamTransport& operator=(const StreamTransport&) = delete;

    /// Writes one already-encoded frame (length prefix included).
    /// Returns false if the link is (or just became) broken.
    bool send_frame(const std::vector<std::uint8_t>& frame)
        SWH_EXCLUDES(mu_);

    /// Blocking read of one frame BODY (the length prefix is consumed
    /// and validated here). nullopt on EOF, error, or an out-of-range
    /// length prefix; last_error() says which.
    std::optional<std::vector<std::uint8_t>> recv_frame() SWH_EXCLUDES(mu_);

    /// Unblocks recv_frame on the reader thread and fails future sends.
    /// Idempotent; also invoked by the destructor.
    void shutdown() SWH_EXCLUDES(mu_);

    /// Poisons the link with an explicit reason (first reason wins) —
    /// how the frame receiver reports a protocol violation so one
    /// malformed frame kills the connection, not the process.
    void fail(const std::string& why) SWH_EXCLUDES(mu_);

    bool ok() const SWH_EXCLUDES(mu_);

    /// One-line reason the link broke ("" while ok()).
    std::string last_error() const SWH_EXCLUDES(mu_);

private:
    /// fd lifetime: set at construction, closed only by the destructor
    /// (after shutdown() has unblocked the reader); shutdown(2) on a
    /// live fd is thread-safe, so no lock is needed around I/O.
    SWH_NOT_GUARDED Socket sock_;
    mutable swh::Mutex mu_;
    bool broken_ SWH_GUARDED_BY(mu_) = false;
    std::string error_ SWH_GUARDED_BY(mu_);
};

}  // namespace swh::net
