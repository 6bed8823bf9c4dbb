#pragma once

// Adapters binding the observer interfaces of the lower layers to the
// trace recorder + metrics registry. Both tolerate a null lane and/or
// null registry, so callers wire them unconditionally and pay nothing
// when observability is off.

#include <cstddef>
#include <vector>

#include "core/sched_observer.hpp"
#include "net/channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace swh::obs {

/// Records every SchedulerCore decision as trace events on the master's
/// lane, stamped with the `now` the scheduler was given (the run clock
/// in both runtimes, virtual time in the simulator), and folds the
/// scheduling metrics (package size, replica count, rate-estimate
/// relative error) into the registry. The one record of the
/// scheduler's decisions: the balance audit and the PSS weight
/// trajectories (obs::weight_samples) read the drained lane.
/// Single-threaded, like the scheduler it observes.
class SchedTracer final : public core::SchedObserver {
public:
    SchedTracer(TraceLane* lane, MetricsRegistry* metrics);

    void on_slave_registered(core::PeId pe, core::PeKind kind,
                             double now) override;
    void on_slave_deregistered(core::PeId pe, double now) override;
    void on_package_sized(core::PeId pe, std::size_t tasks, bool replica,
                          double now) override;
    void on_task_assigned(core::PeId pe, core::TaskId task,
                          double now) override;
    void on_replica_issued(core::PeId pe, core::TaskId task,
                           double now) override;
    void on_progress(core::PeId pe, double now, double cells_per_second,
                     double prior_estimate) override;
    void on_task_completed(core::PeId pe, core::TaskId task, bool accepted,
                           double now) override;
    void on_task_failed(core::PeId pe, core::TaskId task, bool abandoned,
                        double now) override;

private:
    /// sched.pe.<id>.* handles, resolved when the slave registers (the
    /// only per-PE callback outside the steady state) so the live
    /// dashboard can read current per-PE rates without a trace drain.
    struct PeHandles {
        Gauge* rate = nullptr;       ///< sched.pe.<id>.rate_cps
        Counter* accepted = nullptr; ///< sched.pe.<id>.accepted
        Counter* assigned = nullptr; ///< sched.pe.<id>.assigned
    };
    PeHandles& pe_handles(core::PeId pe);

    TraceLane* lane_;  ///< may be null (metrics only)
    MetricsRegistry* metrics_;
    std::vector<PeHandles> per_pe_;
    // Handles resolved once; all null when no registry was given.
    Counter* packages_ = nullptr;
    Counter* replicas_ = nullptr;
    Counter* accepted_ = nullptr;
    Counter* abandoned_ = nullptr;
    Histogram* package_size_ = nullptr;
    Histogram* rate_error_ = nullptr;
};

/// Bridges one net::Channel's traffic into a trace lane + a shared
/// queue-depth histogram. The channel invokes it under its own mutex,
/// which serialises the (otherwise multi-producer) lane writes.
class ChannelTracer final : public net::ChannelObserver {
public:
    /// Either pointer may be null. `depth` is typically shared by every
    /// channel of one direction (Histogram::record is thread-safe).
    ChannelTracer(TraceLane* lane, Histogram* depth)
        : lane_(lane), depth_(depth) {}

    void on_send(std::size_t depth_after) override {
        if (lane_ != nullptr) {
            lane_->emit(EventKind::ChannelSend, core::kInvalidPe, kNoTask,
                        static_cast<double>(depth_after));
        }
        if (depth_ != nullptr) {
            depth_->record(static_cast<double>(depth_after));
        }
    }

    void on_recv(std::size_t depth_after) override {
        if (lane_ != nullptr) {
            lane_->emit(EventKind::ChannelRecv, core::kInvalidPe, kNoTask,
                        static_cast<double>(depth_after));
        }
    }

private:
    TraceLane* lane_;
    Histogram* depth_;
};

}  // namespace swh::obs
