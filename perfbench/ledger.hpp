#pragma once

// Benchmark-side instrumentation for bench_e2e. Every number of the
// per-layer ledger is taken from outside the library, by timing calls
// into its public extension points:
//
//   * TimedEngine   wraps a slave's engines::ComputeEngine;
//   * TimedPolicy   wraps the core::AllocationPolicy;
//   * SchedLedger   is a core::SchedObserver (RuntimeOptions::sched_observer);
//   * time_wire_mix times net::wire::encode / decode_* on a run's messages.
//
// The decorators only observe: they return exactly what the wrapped object
// returns. End-to-end timings come from runs that use the bare objects.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/policy.hpp"
#include "core/results.hpp"
#include "core/sched_observer.hpp"
#include "engines/engine.hpp"
#include "net/messages.hpp"
#include "obs/trace.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// What one slave's engine did during one run. Written only by the slave
/// thread that calls execute(); read after the run has returned.
struct EngineLedger {
    bool full_speed = true;
    std::size_t calls = 0;
    double busy_s = 0.0;
    std::uint64_t cells = 0;
    double last_return_s = 0.0;    ///< since the run's epoch
    std::vector<double> task_ms;   ///< one execute() each
    std::vector<double> gap_ms;    ///< one execute() return to the next call
    std::vector<swh::core::TaskResult> results;  ///< for the wire mix
};

class TimedEngine final : public swh::engines::ComputeEngine {
public:
    /// `epoch` is read on every call, so the caller may set it after
    /// construction (just before run()). `own_lane` carries the spans when
    /// the runtime hands the engine no trace lane (socket slaves); it must
    /// belong to the thread that calls execute(). Either may be null.
    TimedEngine(std::unique_ptr<ComputeEngine> inner, EngineLedger& ledger,
                const Clock::time_point& epoch, swh::obs::TraceLane* own_lane);

    std::string_view name() const override { return inner_->name(); }
    swh::core::PeKind kind() const override { return inner_->kind(); }

    swh::core::TaskResult execute(const swh::align::Sequence& query,
                                  std::uint32_t query_index,
                                  swh::core::TaskId task,
                                  const swh::db::Database& database,
                                  swh::engines::ExecutionObserver* observer)
        override;

private:
    std::unique_ptr<ComputeEngine> inner_;
    EngineLedger& ledger_;
    const Clock::time_point& epoch_;
    swh::obs::TraceLane* own_lane_;
};

class TimedPolicy final : public swh::core::AllocationPolicy {
public:
    /// Appends each batch_size() duration (µs) to `call_us`. `lane` must
    /// belong to the master thread, which is the only caller.
    TimedPolicy(std::unique_ptr<AllocationPolicy> inner,
                std::vector<double>& call_us, swh::obs::TraceLane* lane);

    std::string_view name() const override { return inner_->name(); }
    std::size_t batch_size(const swh::core::SlaveView& requester,
                           std::span<const swh::core::SlaveView> all,
                           std::size_t ready_remaining,
                           std::size_t total_tasks) override;

private:
    std::unique_ptr<AllocationPolicy> inner_;
    std::vector<double>& call_us_;
    swh::obs::TraceLane* lane_;
};

/// Scheduler decisions of one run: the packages (with their task ids, for
/// the MsgAssign mix), replicas, and progress notifications.
class SchedLedger final : public swh::core::SchedObserver {
public:
    struct Package {
        swh::core::PeId pe = 0;
        std::vector<swh::core::TaskId> tasks;
    };

    void on_package_sized(swh::core::PeId pe, std::size_t tasks, bool replica,
                          double now) override;
    void on_task_assigned(swh::core::PeId pe, swh::core::TaskId task,
                          double now) override;
    void on_replica_issued(swh::core::PeId pe, swh::core::TaskId task,
                           double now) override;
    void on_progress(swh::core::PeId pe, double now, double cells_per_second,
                     double prior_estimate) override;

    std::vector<Package> packages;
    std::size_t replicas = 0;
    std::vector<swh::net::MsgProgress> progress;
};

/// Feeds the scheduler events a traced run recorded on the runtime's
/// "master" lane into `ledger`. RemoteMaster does not forward
/// RuntimeOptions::sched_observer, so socket runs are observed this way.
void replay_sched_events(const swh::obs::TraceLaneData& master,
                         SchedLedger& ledger);

/// A latency summary: the median, and the highest of p75/p90/p95/p99/p99.9
/// with at least ten samples beyond it (the median when there are fewer
/// than twenty samples).
struct Tail {
    double p50 = 0.0;
    double value = 0.0;
    double pct = 50.0;
    std::size_t n = 0;
};
Tail tail_of(const std::vector<double>& xs);

double median(std::vector<double> xs);

/// Mean cost per frame of net::wire::encode and of decode_master /
/// decode_slave over the given messages, repeated for at least
/// `min_seconds` each.
struct WireCost {
    double encode_us = 0.0;
    double decode_us = 0.0;
};
WireCost time_wire_mix(const std::vector<swh::net::MasterMsg>& up,
                       const std::vector<swh::net::SlaveMsg>& down,
                       double min_seconds);

}  // namespace pb
