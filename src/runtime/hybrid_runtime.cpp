#include "runtime/hybrid_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "net/channel.hpp"
#include "net/messages.hpp"
#include "obs/sched_log.hpp"
#include "obs/trace.hpp"
#include "obs/tracers.hpp"
#include "runtime/master_protocol.hpp"
#include "runtime/slave_loop.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace swh::runtime {

using core::PeId;

namespace {

struct SlaveShared {
    net::Channel<net::SlaveMsg> inbox;
    SlaveReport report;
    /// Set by the master right before it closes `inbox` mid-run (the
    /// liveness layer gave up on this slave). Lets the slave's exit path
    /// assert the inbox never closes outside a master-initiated drain.
    std::atomic<bool> abandoned_by_master{false};

    explicit SlaveShared(double delay) : inbox(delay) {}
};

/// In-process SlaveEndpoint: uplink through the shared master inbox,
/// downlink through this slave's own Channel. The protocol itself lives
/// in run_slave_loop (runtime/slave_loop.cpp) — identical over sockets.
class ThreadedSlaveEndpoint final : public SlaveEndpoint {
public:
    ThreadedSlaveEndpoint(net::Channel<net::MasterMsg>& to_master,
                          SlaveShared& shared,
                          const std::atomic<bool>& draining)
        : to_master_(to_master), shared_(shared), draining_(draining) {}

    void send(net::MasterMsg msg) override {
        to_master_.send(std::move(msg));
    }
    std::optional<net::SlaveMsg> recv() override {
        return shared_.inbox.recv();
    }
    std::optional<net::SlaveMsg> recv_for(double timeout_s) override {
        return shared_.inbox.recv_for(timeout_s);
    }
    std::optional<net::SlaveMsg> try_recv() override {
        return shared_.inbox.try_recv();
    }
    bool inbox_closed() override { return shared_.inbox.closed(); }

    void on_inbox_closed_exit() override {
        SWH_INVARIANT(draining_.load() ||
                          shared_.abandoned_by_master.load(),
                      "slave inbox closed outside a master-initiated drain");
    }

private:
    net::Channel<net::MasterMsg>& to_master_;
    SlaveShared& shared_;
    const std::atomic<bool>& draining_;
};

/// In-process SlaveLink: the master writes straight into the slave's
/// shared inbox; abandoning closes it (the cooperative kill signal).
class ThreadedSlaveLink final : public SlaveLink {
public:
    explicit ThreadedSlaveLink(SlaveShared& shared) : shared_(shared) {}

    void send(net::SlaveMsg msg) override {
        shared_.inbox.send(std::move(msg));
    }
    void abandon() override {
        shared_.abandoned_by_master.store(true);
        shared_.inbox.close();
    }

private:
    SlaveShared& shared_;
};

}  // namespace

HybridRuntime::HybridRuntime(const db::Database& database,
                             std::vector<align::Sequence> queries,
                             RuntimeOptions options)
    : database_(&database),
      queries_(std::move(queries)),
      options_(options) {
    SWH_CHECK(!queries_.empty(), "query set must be non-empty");
    validate_runtime_options(options_);
}

RunReport HybridRuntime::run(std::vector<SlaveSpec> slaves,
                             std::unique_ptr<core::AllocationPolicy> policy) {
    SWH_CHECK(!slaves.empty(), "need at least one slave");
    const std::size_t n = slaves.size();

    core::SchedulerCore sched(
        core::make_tasks(queries_, database_->residues()), std::move(policy),
        options_.sched);
    core::ResultMerger merger(queries_.size(), options_.top_k);

    net::Channel<net::MasterMsg> master_inbox(options_.channel_delay_s);
    if (options_.master_link_faults.drop_prob > 0.0 ||
        options_.master_link_faults.stall_s > 0.0) {
        master_inbox.inject_faults(options_.master_link_faults);
    }
    std::vector<std::unique_ptr<SlaveShared>> shared;
    shared.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        shared.push_back(
            std::make_unique<SlaveShared>(options_.channel_delay_s));
        shared.back()->report.label = slaves[i].label;
        shared.back()->report.kind = slaves[i].engine->kind();
        if (options_.slave_link_stall_s > 0.0) {
            shared.back()->inbox.inject_faults(net::ChannelFaults{
                0.0, options_.slave_link_stall_s,
                options_.master_link_faults.seed + i});
        }
    }
    /// Set before the master closes slave inboxes at end of run.
    std::atomic<bool> draining{false};

    // ---- Observability wiring (all optional) ----------------------------
    // Lanes and metric handles are resolved here, before any thread
    // starts, so the hot paths only ever touch pre-resolved pointers.
    obs::TraceRecorder* const rec = options_.trace;
    obs::MetricsRegistry* const metrics = options_.metrics;
    if (rec != nullptr) rec->reset_epoch();

    // One master lane shared by the scheduler tracer and the runtime's
    // own fault events (TraceRecorder::lane() creates a fresh lane per
    // call, so resolving it twice would split the timeline row).
    obs::TraceLane* const master_lane =
        rec != nullptr ? &rec->lane("master") : nullptr;
    obs::SchedTracer sched_tracer(master_lane, metrics);
    obs::SchedFanout sched_fanout;
    if (rec != nullptr || metrics != nullptr) {
        sched_fanout.add(&sched_tracer);
    }
    // Caller-supplied observer (e.g. an obs::WeightLog recording the
    // PSS weight trajectory) shares the scheduler's observer slot with
    // the tracer through the fanout. Either alone skips the fanout hop.
    if (options_.sched_observer != nullptr) {
        sched_fanout.add(options_.sched_observer);
    }
    if (sched_fanout.size() == 1 && options_.sched_observer != nullptr) {
        sched.set_observer(options_.sched_observer);
    } else if (sched_fanout.size() == 1) {
        sched.set_observer(&sched_tracer);
    } else if (!sched_fanout.empty()) {
        sched.set_observer(&sched_fanout);
    }
    obs::ChannelTracer master_chan_tracer(
        rec != nullptr ? &rec->lane("chan:master") : nullptr,
        metrics != nullptr
            ? &metrics->histogram("channel.master_inbox.depth")
            : nullptr);
    if (rec != nullptr || metrics != nullptr) {
        master_inbox.set_observer(&master_chan_tracer);
    }
    MasterProtocol protocol(sched, merger, n, master_loop_config(options_),
                            master_loop_counters(metrics), master_lane);

    std::vector<obs::TraceLane*> slave_lanes(n, nullptr);
    std::vector<obs::Histogram*> slave_duration(n, nullptr);
    std::vector<std::unique_ptr<obs::ChannelTracer>> chan_tracers;
    obs::Histogram* const slave_depth =
        metrics != nullptr ? &metrics->histogram("channel.slave_inbox.depth")
                           : nullptr;
    if (rec != nullptr || metrics != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            if (rec != nullptr) {
                slave_lanes[i] = &rec->lane(slaves[i].label);
            }
            if (metrics != nullptr) {
                slave_duration[i] = &metrics->histogram(
                    std::string("task.duration_s.") +
                    core::to_string(slaves[i].engine->kind()));
            }
            chan_tracers.push_back(std::make_unique<obs::ChannelTracer>(
                rec != nullptr ? &rec->lane("chan:" + slaves[i].label)
                               : nullptr,
                slave_depth));
            shared[i]->inbox.set_observer(chan_tracers.back().get());
        }
    }

    Timer clock;

    // ---- Slave threads --------------------------------------------------
    auto slave_main = [&](PeId pe) {
        SlaveSpec& spec = slaves[pe];
        SlaveShared& sh = *shared[pe];
        if (spec.join_delay_s > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(spec.join_delay_s));
        }
        ThreadedSlaveEndpoint endpoint(master_inbox, sh, draining);
        SlaveLoopConfig config;
        config.pe = pe;
        config.notify_period_s = options_.notify_period_s;
        config.liveness = options_.liveness_timeout_s > 0.0;
        config.heartbeat_period_s = options_.heartbeat_period_s;
        config.leave_after_tasks = spec.leave_after_tasks;
        config.lane = slave_lanes[pe];
        config.duration_hist = slave_duration[pe];
        run_slave_loop(endpoint, *spec.engine, queries_, *database_, config,
                       sh.report);
    };

    std::vector<std::thread> threads;
    threads.reserve(n);
    for (PeId pe = 0; pe < n; ++pe) threads.emplace_back(slave_main, pe);

    // ---- Master (this thread) -------------------------------------------
    std::vector<std::unique_ptr<ThreadedSlaveLink>> link_storage;
    std::vector<SlaveLink*> links;
    link_storage.reserve(n);
    links.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        link_storage.push_back(std::make_unique<ThreadedSlaveLink>(*shared[i]));
        links.push_back(link_storage.back().get());
    }
    run_master_loop(protocol, master_inbox, links, clock);
    RunReport report = protocol.take_report();

    // End-of-run drain: close every inbox so any straggler thread (e.g.
    // a false-positive "dead" slave still finishing its task) unwedges
    // and exits; then the joins below are guaranteed to complete.
    draining.store(true);
    for (std::size_t i = 0; i < n; ++i) {
        if (!shared[i]->inbox.closed()) shared[i]->inbox.close();
    }
    for (std::thread& t : threads) t.join();
    SWH_AUDIT_SWEEP(sched.check_invariants());

    report.wall_seconds = clock.seconds();
    report.gcups =
        align::gcups(report.accepted_cells, report.wall_seconds);
    for (std::size_t i = 0; i < n; ++i) {
        SlaveReport merged = shared[i]->report;
        merged.results_accepted = report.slaves[i].results_accepted;
        merged.results_discarded = report.slaves[i].results_discarded;
        merged.cells_accepted = report.slaves[i].cells_accepted;
        merged.cells_discarded = report.slaves[i].cells_discarded;
        merged.presumed_dead = report.slaves[i].presumed_dead;
        merged.engine_failures =
            std::max(merged.engine_failures,
                     report.slaves[i].engine_failures);
        report.slaves[i] = std::move(merged);
    }
    report.hits.reserve(queries_.size());
    for (std::size_t q = 0; q < queries_.size(); ++q) {
        report.hits.push_back(merger.hits_for(q));
    }
    // Ring overflow must be visible in the metrics, not just buried in
    // the drained lanes: a truncated trace silently skews any analysis
    // built on it. Counted after the joins so every lane has quiesced;
    // created even at zero so dashboards can rely on its presence.
    if (metrics != nullptr && rec != nullptr) {
        metrics->counter("obs.trace.dropped").add(rec->dropped_total());
    }
    if (metrics != nullptr) report.metrics = metrics->snapshot();
    return report;
}

std::vector<KindCells> RunReport::cells_by_kind() const {
    std::vector<KindCells> out;
    for (const SlaveReport& s : slaves) {
        auto it = std::find_if(
            out.begin(), out.end(),
            [&](const KindCells& k) { return k.kind == s.kind; });
        if (it == out.end()) {
            out.push_back(KindCells{s.kind, 0, 0});
            it = std::prev(out.end());
        }
        it->cells_accepted += s.cells_accepted;
        it->cells_discarded += s.cells_discarded;
    }
    return out;
}

}  // namespace swh::runtime
