#include "obs/tracers.hpp"

#include <cmath>

namespace swh::obs {

SchedTracer::SchedTracer(TraceLane* lane, MetricsRegistry* metrics)
    : lane_(lane), metrics_(metrics) {
    if (metrics != nullptr) {
        packages_ = &metrics->counter("sched.packages");
        replicas_ = &metrics->counter("sched.replicas_issued");
        accepted_ = &metrics->counter("sched.completions_accepted");
        abandoned_ = &metrics->counter("sched.tasks_abandoned");
        package_size_ = &metrics->histogram("sched.package_size");
        rate_error_ = &metrics->histogram("sched.rate_estimate_rel_error");
    }
}

SchedTracer::PeHandles& SchedTracer::pe_handles(core::PeId pe) {
    const auto i = static_cast<std::size_t>(pe);
    if (i >= per_pe_.size()) per_pe_.resize(i + 1);
    PeHandles& h = per_pe_[i];
    if (metrics_ != nullptr && h.rate == nullptr) {
        const std::string base = "sched.pe." + std::to_string(pe) + ".";
        h.rate = &metrics_->gauge(base + "rate_cps");
        h.accepted = &metrics_->counter(base + "accepted");
        h.assigned = &metrics_->counter(base + "assigned");
    }
    return h;
}

void SchedTracer::on_slave_registered(core::PeId pe, core::PeKind kind,
                                      double now) {
    if (lane_ != nullptr) {
        lane_->emit(now, EventKind::SlaveRegistered, pe, kNoTask,
                    static_cast<double>(kind), core::to_string(kind));
    }
    // Registration is rare and already off the hot path, so this is the
    // one place per-PE handles get allocated.
    if (metrics_ != nullptr) pe_handles(pe);
}

void SchedTracer::on_slave_deregistered(core::PeId pe, double now) {
    if (lane_ != nullptr) lane_->emit(now, EventKind::SlaveDeregistered, pe);
}

void SchedTracer::on_package_sized(core::PeId pe, std::size_t tasks,
                                   bool replica, double now) {
    (void)replica;
    if (lane_ != nullptr) {
        lane_->emit(now, EventKind::PackageSized, pe, kNoTask,
                    static_cast<double>(tasks));
    }
    if (packages_ != nullptr) packages_->add();
    if (package_size_ != nullptr) {
        package_size_->record(static_cast<double>(tasks));
    }
}

void SchedTracer::on_task_assigned(core::PeId pe, core::TaskId task,
                                   double now) {
    if (lane_ != nullptr) lane_->emit(now, EventKind::TaskAssigned, pe, task);
    if (metrics_ != nullptr) pe_handles(pe).assigned->add();
}

void SchedTracer::on_replica_issued(core::PeId pe, core::TaskId task,
                                    double now) {
    if (lane_ != nullptr) lane_->emit(now, EventKind::ReplicaIssued, pe, task);
    if (replicas_ != nullptr) replicas_->add();
}

void SchedTracer::on_progress(core::PeId pe, double now,
                              double cells_per_second,
                              double prior_estimate) {
    if (lane_ != nullptr) {
        lane_->emit(now, EventKind::Progress, pe, kNoTask, cells_per_second,
                    nullptr, prior_estimate);
    }
    if (metrics_ != nullptr) pe_handles(pe).rate->set(cells_per_second);
    // The estimate the master was steering by, scored against what the
    // slave then actually delivered (paper SS IV-A.2's whole premise).
    if (rate_error_ != nullptr && cells_per_second > 0.0 &&
        prior_estimate > 0.0) {
        rate_error_->record(std::abs(prior_estimate - cells_per_second) /
                            cells_per_second);
    }
}

void SchedTracer::on_task_completed(core::PeId pe, core::TaskId task,
                                    bool accepted, double now) {
    if (lane_ != nullptr) {
        lane_->emit(now,
                    accepted ? EventKind::CompletedAccepted
                             : EventKind::CompletedDiscarded,
                    pe, task);
    }
    // Discards are counted by runtime::MasterProtocol, which also sees
    // the completions that never reach the scheduler.
    if (accepted) {
        if (accepted_ != nullptr) accepted_->add();
        if (metrics_ != nullptr) pe_handles(pe).accepted->add();
    }
}

void SchedTracer::on_task_failed(core::PeId pe, core::TaskId task,
                                 bool abandoned, double now) {
    if (lane_ != nullptr) {
        lane_->emit(now, EventKind::TaskFailed, pe, task,
                    abandoned ? 1.0 : 0.0);
    }
    if (abandoned && abandoned_ != nullptr) abandoned_->add();
}

}  // namespace swh::obs
