#pragma once

// Readers and adapters of the scheduler's decision record. The record
// itself is the "master" trace lane obs::SchedTracer writes on the
// scheduler's clock, in both runtimes and the simulator alike; this
// header reads the PSS weight trajectories back off it and writes them
// out. SchedFanout lets extra observers (RuntimeOptions::sched_observer)
// share the scheduler's single observer slot with SchedTracer; its
// callbacks arrive on one thread with the scheduler mutex held, so it
// takes no locks and must not re-enter the scheduler.

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

    void on_slave_registered(core::PeId pe, core::PeKind kind,
                             double now) override {
        for (auto* o : observers_) o->on_slave_registered(pe, kind, now);
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

/// One PSS rate observation: the rate the slave realised over its last
/// notify period against the recency-weighted estimate Φ(p_i, P) the
/// master was steering by *before* folding the sample in (paper
/// §IV-A.2). A trajectory of these is the "adjustment converges"
/// evidence: `estimate` chasing `realised` with shrinking error.
struct WeightSample {
    core::PeId pe = core::kInvalidPe;
    double t = 0.0;                  ///< scheduler clock (virtual or wall)
    double realised_cps = 0.0;       ///< delivered cells/s this period
    double prior_estimate_cps = 0.0; ///< 0 = first sample, no history yet
};

/// The samples on the trace's "master" lane: one per Progress event,
/// with the prior estimate it carries. Throws IoError naming
/// `obs.trace.dropped` and the count when that lane lost events, rather
/// than return a truncated trajectory; other lanes are not read, so
/// their overflow does not matter here.
std::vector<WeightSample> weight_samples(const Trace& trace);

/// Writes `samples` to `os` as a JSON array of sample objects when
/// `path` ends in ".json", else as CSV
/// (pe,label,t_seconds,realised_cps,estimate_cps,rel_error, where
/// rel_error = |estimate-realised|/realised, empty while the estimate
/// has no history). `pe_labels` (index = PeId) names the PEs in both
/// formats; unknown PEs get "pe<N>".
void write_weights(std::ostream& os, const std::string& path,
                   std::span<const WeightSample> samples,
                   std::span<const std::string> pe_labels);

}  // namespace swh::obs
