#include "runtime/hybrid_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "net/channel.hpp"
#include "net/messages.hpp"
#include "obs/trace.hpp"
#include "obs/tracers.hpp"
#include "runtime/master_host.hpp"
#include "runtime/slave_loop.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"

namespace swh::runtime {

using core::PeId;

namespace {

struct SlaveShared {
    net::Channel<net::SlaveMsg> inbox;
    SlaveReport report;
    /// Set by the master right before it closes `inbox` mid-run (the
    /// liveness layer gave up on this slave). Lets the slave thread
    /// assert, once its loop returns, that the inbox never closes outside
    /// a master-initiated drain.
    std::atomic<bool> abandoned_by_master{false};

    explicit SlaveShared(double delay) : inbox(delay) {}
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
}

RunReport HybridRuntime::run(std::vector<SlaveSpec> slaves,
                             std::unique_ptr<core::AllocationPolicy> policy) {
    SWH_CHECK(!slaves.empty(), "need at least one slave");
    const std::size_t n = slaves.size();
    MasterHost host(queries_, database_->residues(), std::move(policy), n,
                    options_);

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

    // ---- Slave-side observability (optional) ----------------------------
    // Lanes and metric handles are resolved here, before any thread
    // starts, so the hot paths only ever touch pre-resolved pointers.
    obs::TraceRecorder* const rec = options_.trace;
    obs::MetricsRegistry* const metrics = options_.metrics;
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
                rec != nullptr ? &rec->lane(obs::channel_lane_label(slaves[i].label))
                               : nullptr,
                slave_depth));
            shared[i]->inbox.set_observer(chan_tracers.back().get());
        }
    }

    // ---- Slave threads --------------------------------------------------
    auto slave_main = [&](PeId pe) {
        SlaveSpec& spec = slaves[pe];
        SlaveShared& sh = *shared[pe];
        if (spec.join_delay_s > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(spec.join_delay_s));
        }
        SlaveLoopConfig config;
        config.pe = pe;
        config.notify_period_s = options_.notify_period_s;
        config.liveness = options_.liveness_timeout_s > 0.0;
        config.heartbeat_period_s = options_.heartbeat_period_s;
        config.leave_after_tasks = spec.leave_after_tasks;
        config.lane = slave_lanes[pe];
        config.duration_hist = slave_duration[pe];
        run_slave_loop(
            sh.inbox,
            [&host](net::MasterMsg msg) { host.inbox().send(std::move(msg)); },
            *spec.engine, queries_, *database_, config, sh.report);
        SWH_INVARIANT(!sh.inbox.closed() || draining.load() ||
                          sh.abandoned_by_master.load(),
                      "slave inbox closed outside a master-initiated drain");
    };

    std::vector<std::thread> threads;
    threads.reserve(n);
    for (PeId pe = 0; pe < n; ++pe) threads.emplace_back(slave_main, pe);

    // ---- Master (this thread) -------------------------------------------
    std::vector<std::unique_ptr<SlaveLink>> links;
    for (std::size_t i = 0; i < n; ++i) {
        links.push_back(std::make_unique<ThreadedSlaveLink>(*shared[i]));
    }
    host.pump(links);

    // End-of-run drain: close every inbox so any straggler thread (e.g.
    // a false-positive "dead" slave still finishing its task) unwedges
    // and exits; then the joins below are guaranteed to complete.
    draining.store(true);
    for (std::size_t i = 0; i < n; ++i) {
        if (!shared[i]->inbox.closed()) shared[i]->inbox.close();
    }
    for (std::thread& t : threads) t.join();

    RunReport report = host.finish();
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
