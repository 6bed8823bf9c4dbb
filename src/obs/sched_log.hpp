#pragma once

// core::SchedObserver adapters feeding the balance auditor
// (obs/balance.hpp): a fan-out so several observers can share the
// scheduler's single observer slot, an event log capturing scheduling
// decisions into a plain TraceLaneData on the callback-supplied clock
// (virtual time under the DES, the runtime's clock otherwise), and the
// PSS weight-trajectory recorder built on the `prior_estimate` hook.
//
// All three follow the SchedObserver threading rules: callbacks arrive
// on one thread (the master / the simulator's event loop) with the
// scheduler mutex held, so none of these take locks and none may
// re-enter the scheduler.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/sched_observer.hpp"
#include "obs/trace.hpp"

namespace swh::obs {

/// Broadcasts every SchedObserver callback to each attached observer,
/// in attach order. Non-owning; attached observers must outlive it.
class SchedFanout final : public core::SchedObserver {
public:
    void add(core::SchedObserver* observer) {
        if (observer != nullptr) observers_.push_back(observer);
    }
    bool empty() const { return observers_.empty(); }
    std::size_t size() const { return observers_.size(); }

    void on_slave_registered(core::PeId pe, core::PeKind kind) override {
        for (auto* o : observers_) o->on_slave_registered(pe, kind);
    }
    void on_slave_deregistered(core::PeId pe, double now) override {
        for (auto* o : observers_) o->on_slave_deregistered(pe, now);
    }
    void on_package_sized(core::PeId pe, std::size_t tasks, bool replica,
                          double now) override {
        for (auto* o : observers_) {
            o->on_package_sized(pe, tasks, replica, now);
        }
    }
    void on_task_assigned(core::PeId pe, core::TaskId task,
                          double now) override {
        for (auto* o : observers_) o->on_task_assigned(pe, task, now);
    }
    void on_replica_issued(core::PeId pe, core::TaskId task,
                           double now) override {
        for (auto* o : observers_) o->on_replica_issued(pe, task, now);
    }
    void on_progress(core::PeId pe, double now, double cells_per_second,
                     double prior_estimate) override {
        for (auto* o : observers_) {
            o->on_progress(pe, now, cells_per_second, prior_estimate);
        }
    }
    void on_task_completed(core::PeId pe, core::TaskId task, bool accepted,
                           double now) override {
        for (auto* o : observers_) {
            o->on_task_completed(pe, task, accepted, now);
        }
    }
    void on_task_failed(core::PeId pe, core::TaskId task, bool abandoned,
                        double now) override {
        for (auto* o : observers_) {
            o->on_task_failed(pe, task, abandoned, now);
        }
    }

private:
    std::vector<core::SchedObserver*> observers_;
};

/// Records scheduling decisions as TraceEvents in a growable lane — no
/// ring, no recorder, no wall clock: every event is stamped with the
/// `now` the scheduler's caller supplied, which is what lets a DES run
/// produce the same master-lane shape as a traced real run.
/// sim::to_trace() merges the lane with the per-PE span lanes so both
/// execution modes feed obs::analyze_balance identically.
class SchedEventLog final : public core::SchedObserver {
public:
    explicit SchedEventLog(std::string label = "master") {
        lane_.label = std::move(label);
    }

    const TraceLaneData& lane() const { return lane_; }
    TraceLaneData take() { return std::move(lane_); }

    void on_slave_registered(core::PeId pe, core::PeKind kind) override {
        // The only callback without a caller clock; registration happens
        // at (or before) the first timestamped event.
        emit(last_now_, EventKind::SlaveRegistered, pe, kNoTask,
             static_cast<double>(kind), core::to_string(kind));
    }
    void on_slave_deregistered(core::PeId pe, double now) override {
        emit(now, EventKind::SlaveDeregistered, pe);
    }
    void on_package_sized(core::PeId pe, std::size_t tasks, bool replica,
                          double now) override {
        (void)replica;
        emit(now, EventKind::PackageSized, pe, kNoTask,
             static_cast<double>(tasks));
    }
    void on_task_assigned(core::PeId pe, core::TaskId task,
                          double now) override {
        emit(now, EventKind::TaskAssigned, pe, task);
    }
    void on_replica_issued(core::PeId pe, core::TaskId task,
                           double now) override {
        emit(now, EventKind::ReplicaIssued, pe, task);
    }
    void on_progress(core::PeId pe, double now, double cells_per_second,
                     double prior_estimate) override {
        (void)prior_estimate;
        emit(now, EventKind::Progress, pe, kNoTask, cells_per_second);
    }
    void on_task_completed(core::PeId pe, core::TaskId task, bool accepted,
                           double now) override {
        emit(now,
             accepted ? EventKind::CompletedAccepted
                      : EventKind::CompletedDiscarded,
             pe, task);
    }
    void on_task_failed(core::PeId pe, core::TaskId task, bool abandoned,
                        double now) override {
        emit(now, EventKind::TaskFailed, pe, task, abandoned ? 1.0 : 0.0);
    }

private:
    void emit(double t, EventKind kind, core::PeId pe,
              core::TaskId task = kNoTask, double value = 0.0,
              const char* name = nullptr) {
        last_now_ = t;
        lane_.events.push_back(TraceEvent{t, kind, pe, task, value, name});
    }

    TraceLaneData lane_;
    double last_now_ = 0.0;
};

/// One PSS rate observation: the rate the slave realised over its last
/// notify period against the recency-weighted estimate Φ(p_i, P) the
/// master was steering by *before* folding the sample in (paper
/// §IV-A.2). A trajectory of these is the "adjustment converges"
/// evidence: `estimate` chasing `realised` with shrinking error.
struct WeightSample {
    core::PeId pe = core::kInvalidPe;
    double t = 0.0;                  ///< caller clock (virtual or wall)
    double realised_cps = 0.0;       ///< delivered cells/s this period
    double prior_estimate_cps = 0.0; ///< 0 = first sample, no history yet
};

/// Records every on_progress sample. Single-threaded by the
/// SchedObserver contract; attach through a SchedFanout to combine
/// with SchedTracer.
class WeightLog final : public core::SchedObserver {
public:
    void on_progress(core::PeId pe, double now, double cells_per_second,
                     double prior_estimate) override {
        samples_.push_back(
            WeightSample{pe, now, cells_per_second, prior_estimate});
    }

    const std::vector<WeightSample>& samples() const { return samples_; }
    bool empty() const { return samples_.empty(); }

    /// CSV: pe,label,t_seconds,realised_cps,estimate_cps,rel_error.
    /// `pe_labels` (index = PeId) is optional; unknown PEs get "pe<N>".
    /// rel_error = |estimate-realised|/realised, empty while the
    /// estimate has no history.
    void export_csv(std::ostream& os,
                    std::span<const std::string> pe_labels = {}) const;
    std::string csv(std::span<const std::string> pe_labels = {}) const;

    /// JSON array of sample objects (same fields as the CSV).
    std::string to_json(std::span<const std::string> pe_labels = {}) const;

private:
    std::vector<WeightSample> samples_;
};

}  // namespace swh::obs
