#pragma once

#include <algorithm>
#include <chrono>
#include <deque>
#include <iterator>
#include <optional>
#include <utility>

#include "util/annotations.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace swh::net {

/// Observation hook for a Channel's traffic (see obs::ChannelTracer).
/// Callbacks run WITH THE CHANNEL MUTEX HELD — the serialisation is
/// what makes a per-channel trace lane safe — so they must be quick and
/// must never call back into the channel.
class ChannelObserver {
public:
    virtual ~ChannelObserver() = default;
    virtual void on_send(std::size_t depth_after) { (void)depth_after; }
    virtual void on_recv(std::size_t depth_after) { (void)depth_after; }
};

/// Fault-injection plan for a Channel (ISSUE 5): a lossy and/or
/// congested link. Drops are drawn per send from a seeded deterministic
/// stream; stall adds a fixed extra delivery delay on top of the
/// channel's base latency. Recovery from drops is the liveness layer's
/// job (heartbeats, re-registration, workload adjustment) — the channel
/// just loses the message, as a real network would.
struct ChannelFaults {
    double drop_prob = 0.0;  ///< P(silently discard a send), in [0, 1]
    double stall_s = 0.0;    ///< extra delivery delay per message
    std::uint64_t seed = 0x5EEDF00DULL;  ///< drop-draw stream seed
};

/// Blocking MPSC message queue — the "network" between master and slaves
/// in the threaded runtime. An optional fixed delivery delay emulates
/// link latency (a message becomes visible to recv only delay seconds
/// after send), which the paper's Gigabit-Ethernet setup would add.
template <typename T>
class Channel {
public:
    explicit Channel(double delivery_delay_s = 0.0)
        : delay_(std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(delivery_delay_s))) {
        SWH_CHECK_GE(delivery_delay_s, 0.0, "delay must be non-negative");
    }

    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    /// Attaches a traffic observer (nullptr detaches). Non-owning; the
    /// observer must outlive the channel's traffic.
    void set_observer(ChannelObserver* observer) SWH_EXCLUDES(mu_) {
        const swh::LockGuard lock(mu_);
        observer_ = observer;
    }

    /// Arms (or, with a default-constructed plan, disarms) link-fault
    /// injection. Reseeds the drop stream, so runs are reproducible.
    void inject_faults(const ChannelFaults& faults) SWH_EXCLUDES(mu_) {
        SWH_CHECK_GE(faults.drop_prob, 0.0, "drop probability below 0");
        SWH_CHECK_LE(faults.drop_prob, 1.0, "drop probability above 1");
        SWH_CHECK_GE(faults.stall_s, 0.0, "stall must be non-negative");
        const swh::LockGuard lock(mu_);
        faults_ = faults;
        fault_rng_.reseed(faults.seed);
    }

    /// Messages the link ate: drop-fault discards plus post-close sends.
    std::size_t dropped() const SWH_EXCLUDES(mu_) {
        const swh::LockGuard lock(mu_);
        return dropped_;
    }

    void send(T msg) SWH_EXCLUDES(mu_) {
        {
            const swh::LockGuard lock(mu_);
            if (closed_) {
                // ISSUE 10 shutdown-race fix: a slave's late heartbeat or
                // deregister racing the master's close() used to trip
                // SWH_CHECK and abort the process. A real link would
                // simply lose the message — so the send becomes a
                // counted drop, visible through dropped(). The socket
                // writer (net::send_msg) has the same contract: a send
                // on a shut-down link returns false and is lost.
                ++dropped_;
                return;
            }
            if (faults_.drop_prob > 0.0 &&
                fault_rng_.uniform() < faults_.drop_prob) {
                ++dropped_;
                return;  // the link ate it; no observer event, no wakeup
            }
            const auto stall = std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(faults_.stall_s));
            queue_.push_back(
                Entry{Clock::now() + delay_ + stall, std::move(msg)});
            if (observer_ != nullptr) observer_->on_send(queue_.size());
        }
        // Single consumer per channel (MPSC): waking one waiter is
        // enough and avoids a thundering notify_all per message.
        cv_.notify_one();
    }

    /// Blocks until a message is deliverable or the channel is closed and
    /// drained (then nullopt).
    std::optional<T> recv() SWH_EXCLUDES(mu_) {
        const swh::LockGuard lock(mu_);
        while (true) {
            if (!queue_.empty()) {
                const auto it = earliest_locked();
                if (it->ready <= Clock::now()) return pop_locked(it);
                cv_.wait_until(mu_, it->ready);
                continue;
            }
            if (closed_) return std::nullopt;
            cv_.wait(mu_);
        }
    }

    /// Blocks up to `timeout_s` seconds: a deliverable message, or
    /// nullopt on timeout or when closed and drained (callers that need
    /// to tell the two apart check closed()). The deadline-driven wait
    /// the fault-tolerant master loop runs on.
    std::optional<T> recv_for(double timeout_s) SWH_EXCLUDES(mu_) {
        const swh::LockGuard lock(mu_);
        const auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   std::max(0.0, timeout_s)));
        while (true) {
            const auto now = Clock::now();
            if (!queue_.empty()) {
                const auto it = earliest_locked();
                if (it->ready <= now) return pop_locked(it);
                if (now >= deadline) return std::nullopt;
                cv_.wait_until(mu_, std::min(deadline, it->ready));
                continue;
            }
            if (closed_) return std::nullopt;
            if (now >= deadline) return std::nullopt;
            cv_.wait_until(mu_, deadline);
        }
    }

    /// Non-blocking: a deliverable message or nullopt.
    std::optional<T> try_recv() SWH_EXCLUDES(mu_) {
        const swh::LockGuard lock(mu_);
        if (queue_.empty()) return std::nullopt;
        const auto it = earliest_locked();
        if (it->ready > Clock::now()) return std::nullopt;
        return pop_locked(it);
    }

    /// After close, sends become counted drops and recv drains then
    /// returns nullopt.
    /// notify_all here on purpose: close is a broadcast-shaped event
    /// (any stray waiter must observe it), unlike per-message sends.
    void close() SWH_EXCLUDES(mu_) {
        {
            const swh::LockGuard lock(mu_);
            closed_ = true;
        }
        cv_.notify_all();
    }

    std::size_t size() const SWH_EXCLUDES(mu_) {
        const swh::LockGuard lock(mu_);
        return queue_.size();
    }

    bool closed() const SWH_EXCLUDES(mu_) {
        const swh::LockGuard lock(mu_);
        return closed_;
    }

private:
    using Clock = std::chrono::steady_clock;
    struct Entry {
        Clock::time_point ready;
        T payload;
    };

    /// The queue slot that becomes deliverable first: earliest ready
    /// time, FIFO position breaking ties. With per-message fault stalls
    /// a later-sent entry can be deliverable before front(), so every
    /// delivery path must key on this instead of the head — waiting on
    /// front().ready alone let recv_for time out (and the master declare
    /// a slave dead) while a deliverable message sat behind a stalled
    /// head (ISSUE 10 head-of-line fix). O(queue) scan; inbox depths are
    /// a handful of messages (see the channel depth gauges).
    typename std::deque<Entry>::iterator earliest_locked()
        SWH_REQUIRES(mu_) {
        auto best = queue_.begin();
        for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
            if (it->ready < best->ready) best = it;
        }
        return best;
    }

    std::optional<T> pop_locked(typename std::deque<Entry>::iterator it)
        SWH_REQUIRES(mu_) {
        T msg = std::move(it->payload);
        queue_.erase(it);
        if (observer_ != nullptr) observer_->on_recv(queue_.size());
        return msg;
    }

    mutable swh::Mutex mu_;
    swh::CondVar cv_;
    std::deque<Entry> queue_ SWH_GUARDED_BY(mu_);
    const Clock::duration delay_;  ///< fixed at construction
    ChannelObserver* observer_ SWH_GUARDED_BY(mu_) = nullptr;
    bool closed_ SWH_GUARDED_BY(mu_) = false;
    ChannelFaults faults_ SWH_GUARDED_BY(mu_);
    Rng fault_rng_ SWH_GUARDED_BY(mu_);
    std::size_t dropped_ SWH_GUARDED_BY(mu_) = 0;
};

}  // namespace swh::net
