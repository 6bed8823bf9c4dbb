#include "runtime/master_host.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "util/check.hpp"

namespace swh::runtime {

MasterHost::MasterHost(const std::vector<align::Sequence>& queries,
                       std::uint64_t db_residues,
                       std::unique_ptr<core::AllocationPolicy> policy,
                       std::size_t slaves, const RuntimeOptions& options)
    : query_count_(queries.size()),
      trace_(options.trace),
      metrics_(options.metrics),
      sched_(core::make_tasks(queries, db_residues), std::move(policy),
             options.sched),
      merger_(queries.size(), options.top_k),
      inbox_(options.channel_delay_s),
      master_lane_(trace_ != nullptr
                       ? &trace_->lane("master", obs::Overflow::Grow)
                       : nullptr),
      sched_tracer_(master_lane_, metrics_),
      inbox_tracer_(trace_ != nullptr ? &trace_->lane(obs::channel_lane_label("master")) : nullptr,
                    metrics_ != nullptr
                        ? &metrics_->histogram("channel.master_inbox.depth")
                        : nullptr),
      protocol_(sched_, merger_, slaves, options, master_lane_) {
    // One time axis: the run clock stamps the scheduler's events, the
    // recorder's own clock every other lane's.
    if (trace_ != nullptr) trace_->reset_epoch(clock_.start());
    if (options.master_link_faults.drop_prob > 0.0 ||
        options.master_link_faults.stall_s > 0.0) {
        inbox_.inject_faults(options.master_link_faults);
    }
    if (trace_ != nullptr || metrics_ != nullptr) {
        sched_fanout_.add(&sched_tracer_);
        inbox_.set_observer(&inbox_tracer_);
    }
    // A caller-supplied observer shares the scheduler's one observer
    // slot.
    sched_fanout_.add(options.sched_observer);
    if (!sched_fanout_.empty()) sched_.set_observer(&sched_fanout_);
}

void MasterHost::pump(const std::vector<std::unique_ptr<SlaveLink>>& links) {
    std::vector<MasterAction> out;
    while (!protocol_.finished()) {
        // Deadline-driven wait: a blocking recv() alone would deadlock
        // when a slave dies silently, so wake at the protocol's next
        // deadline; block indefinitely only when it has none.
        const double deadline = protocol_.next_deadline();
        std::optional<net::MasterMsg> msg =
            deadline == std::numeric_limits<double>::infinity()
                ? inbox_.recv()
                : inbox_.recv_for(std::max(deadline - clock_.seconds(), 1e-4));
        SWH_CHECK(msg.has_value() || !inbox_.closed(),
                  "master inbox closed prematurely");
        const double now = clock_.seconds();
        if (msg.has_value()) protocol_.on_message(std::move(*msg), now, out);
        protocol_.on_timer(now, out);
        for (MasterAction& action : out) {
            if (action.msg.has_value()) {
                links[action.pe]->send(std::move(*action.msg));
            } else {
                links[action.pe]->abandon();
            }
        }
        out.clear();
    }
}

RunReport MasterHost::finish() {
    RunReport report = protocol_.take_report();
    SWH_AUDIT_SWEEP(sched_.check_invariants());
    report.wall_seconds = clock_.seconds();
    report.gcups = align::gcups(report.accepted_cells, report.wall_seconds);
    report.hits.reserve(query_count_);
    for (std::size_t q = 0; q < query_count_; ++q) {
        report.hits.push_back(merger_.hits_for(q));
    }
    // Ring overflow must be visible in the metrics, not just buried in
    // the drained lanes: a truncated trace silently skews any analysis
    // built on it. Counted once the transport has stopped, so every lane
    // has quiesced; created even at zero so dashboards can rely on it.
    if (metrics_ != nullptr && trace_ != nullptr) {
        metrics_->counter("obs.trace.dropped").add(trace_->dropped_total());
    }
    if (metrics_ != nullptr) report.metrics = metrics_->snapshot();
    return report;
}

}  // namespace swh::runtime
