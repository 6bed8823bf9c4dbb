#include "runtime/slave_loop.hpp"

#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "engines/faulty_engine.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace swh::runtime {

using core::PeId;
using core::TaskId;

namespace {

/// Slave-side execution observer: converts engine cell counts into
/// periodic MsgProgress notifications (which double as liveness
/// heartbeats while busy) and services master messages that arrive
/// mid-execution — pushed assignments, the end-of-run Shutdown (sent as
/// soon as every task is settled, so it routinely lands while a losing
/// replica runs), and the "you're gone" signal of a closed inbox.
class SlaveObserver final : public engines::ExecutionObserver {
public:
    SlaveObserver(PeId pe, double notify_period_s,
                  net::Channel<net::SlaveMsg>& inbox, const Uplink& uplink,
                  std::vector<core::Task>& pending_assigns,
                  obs::TraceLane* lane)
        : pe_(pe),
          period_(notify_period_s),
          inbox_(inbox),
          uplink_(uplink),
          pending_assigns_(pending_assigns),
          lane_(lane) {}

    void on_cells(std::uint64_t cells_delta) override {
        // ISSUE 5 satellite fix: cells_/since_notify_ used to be mutated
        // unguarded here while cancelled() documents multi-threaded
        // polling — everything mutable now serialises on mu_.
        const swh::LockGuard lock(mu_);
        cells_ += cells_delta;
        task_cells_ += cells_delta;
        const double elapsed = since_notify_.seconds();
        // elapsed > 0 keeps a zero period (a Welcome off the wire is
        // not range-checked) from dividing by a zero-length window.
        if (elapsed > 0.0 && elapsed >= period_ && cells_ > 0) {
            uplink_(net::MsgProgress{
                pe_, static_cast<double>(cells_) / elapsed});
            cells_ = 0;
            since_notify_.reset();
        }
    }

    bool cancelled() const override {
        // Engines may poll from several worker threads.
        const swh::LockGuard lock(mu_);
        drain_inbox_locked();
        return cancelled_current_;
    }

    bool cancelled_current() const {
        const swh::LockGuard lock(mu_);
        return cancelled_current_;
    }

    bool saw_shutdown() const {
        const swh::LockGuard lock(mu_);
        return shutdown_;
    }

    /// The slave thread's trace lane, so engines nest kernel spans
    /// inside this slave's task span.
    obs::TraceLane* trace_lane() const override { return lane_; }

    /// Rate over the whole task, for a final notification on completion.
    /// Not the window since the last periodic sample: an engine may
    /// credit many cells at once (the funnel counts a pruned subject's
    /// cells when it drops it), so that tail window can be microseconds
    /// long and read thousands of times the PE's real speed.
    void send_final_rate(double task_seconds) {
        const swh::LockGuard lock(mu_);
        if (task_cells_ > 0 && task_seconds > 0.0) {
            uplink_(net::MsgProgress{
                pe_, static_cast<double>(task_cells_) / task_seconds});
        }
    }

private:
    void drain_inbox_locked() const SWH_REQUIRES(mu_) {
        while (auto msg = inbox_.try_recv()) {
            if (const auto* assign = std::get_if<net::MsgAssign>(&*msg)) {
                // The master served a heartbeat that raced our previous
                // request; queue the package for after this task.
                pending_assigns_.insert(pending_assigns_.end(),
                                        assign->tasks.begin(),
                                        assign->tasks.end());
            } else if (std::holds_alternative<net::MsgShutdown>(*msg)) {
                shutdown_ = true;
                cancelled_current_ = true;
            } else if (std::holds_alternative<net::MsgNoWorkYet>(*msg)) {
                // Stale reply to a duplicated request; ignore.
            }
        }
        // A closed inbox is the master's "you're gone" (presumed dead,
        // or the end-of-run drain): stop the engine cooperatively. This
        // is what unwedges a permanently stalled engine.
        if (inbox_.closed()) cancelled_current_ = true;
    }

    const PeId pe_;
    const double period_;
    net::Channel<net::SlaveMsg>& inbox_;
    const Uplink& uplink_;
    /// Written under mu_ while the engine runs; the slave thread reads
    /// it lock-free only after execute() returns (the engine joins its
    /// pollers before returning, which orders those accesses).
    std::vector<core::Task>& pending_assigns_;
    mutable swh::Mutex mu_;
    mutable bool cancelled_current_ SWH_GUARDED_BY(mu_) = false;
    mutable bool shutdown_ SWH_GUARDED_BY(mu_) = false;
    mutable std::uint64_t cells_ SWH_GUARDED_BY(mu_) = 0;
    mutable Timer since_notify_ SWH_GUARDED_BY(mu_);
    std::uint64_t task_cells_ SWH_GUARDED_BY(mu_) = 0;
    obs::TraceLane* const lane_;
};

}  // namespace

SlaveExit run_slave_loop(net::Channel<net::SlaveMsg>& inbox,
                         const Uplink& uplink, engines::ComputeEngine& engine,
                         const std::vector<align::Sequence>& queries,
                         const db::Database& database,
                         const SlaveLoopConfig& config, SlaveReport& report) {
    const PeId pe = config.pe;
    uplink(net::MsgRegister{pe, engine.kind()});

    // The inbox closed: the master wrote this slave off (presumed dead,
    // or the end-of-run drain) or the link dropped. What is still queued
    // drains first, so a Shutdown sent right before the close (delayed
    // or stalled on the link) still ends the session as a Shutdown.
    // Otherwise the master still gets a farewell MsgDeregister for the
    // audit trail.
    auto exit_on_closed_inbox = [&] {
        bool shutdown = false;
        while (auto msg = inbox.recv()) {
            if (std::holds_alternative<net::MsgShutdown>(*msg)) {
                shutdown = true;
            }
        }
        if (shutdown) return SlaveExit::Shutdown;
        uplink(net::MsgDeregister{pe});
        return SlaveExit::LinkClosed;
    };

    std::vector<core::Task> batch;
    std::vector<core::Task> pending_assigns;
    std::size_t completions = 0;
    bool heard_from_master = false;
    while (true) {
        if (batch.empty() && !pending_assigns.empty()) {
            batch = std::move(pending_assigns);
            pending_assigns.clear();
        }
        if (batch.empty()) {
            uplink(net::MsgWorkRequest{pe});
            bool got_batch = false;
            while (!got_batch) {
                std::optional<net::SlaveMsg> msg =
                    config.liveness
                        ? inbox.recv_for(config.heartbeat_period_s)
                        : inbox.recv();
                if (!msg) {
                    if (inbox.closed()) return exit_on_closed_inbox();
                    // recv_for timed out: beacon liveness. Until the
                    // master has spoken to us at all, re-send the
                    // registration instead — the first Register (or the
                    // work request after it) may have been dropped by an
                    // injected link fault.
                    if (heard_from_master) {
                        uplink(net::MsgHeartbeat{pe});
                    } else {
                        uplink(net::MsgRegister{pe, engine.kind()});
                        uplink(net::MsgWorkRequest{pe});
                    }
                    continue;
                }
                heard_from_master = true;
                if (const auto* assign = std::get_if<net::MsgAssign>(&*msg)) {
                    batch = assign->tasks;
                    got_batch = true;
                } else if (std::holds_alternative<net::MsgShutdown>(*msg)) {
                    return SlaveExit::Shutdown;
                } else if (std::holds_alternative<net::MsgNoWorkYet>(*msg)) {
                    // Keep blocking; the master will push.
                }
            }
        }

        const core::Task task_meta = batch.front();
        const TaskId t = task_meta.id;
        batch.erase(batch.begin());
        // Over a real transport the index arrives off the wire, so it is
        // validated against this process's query set rather than trusted.
        SWH_CHECK_LT(task_meta.query_index, queries.size(),
                     "assigned task references an unknown query");
        const align::Sequence& query = queries[task_meta.query_index];

        // Contract failures raised while this task runs carry the
        // slave/task ids in their report.
        const check::ScopedContext check_ctx(pe, t);
        SlaveObserver slave_obs(pe, config.notify_period_s, inbox, uplink,
                                pending_assigns, config.lane);
        if (config.lane != nullptr) config.lane->span_begin("task", t, pe);
        Timer task_timer;
        core::TaskResult result;
        bool failed = false;
        std::string failure;
        // Containment (ISSUE 5): an engine exception used to unwind out
        // of this thread and std::terminate the process. It now becomes
        // MsgTaskFailed and the slave soldiers on. The one exception
        // that stays fatal-by-design is SimulatedCrash — fault injection
        // for "the PE vanished", which only the master's liveness
        // timeout can handle.
        try {
            result = engine.execute(query, task_meta.query_index, t,
                                    database, &slave_obs);
        } catch (const engines::SimulatedCrash&) {
            report.crashed = true;
            if (config.lane != nullptr) {
                config.lane->span_end("task", t, 1.0, pe);
            }
            return SlaveExit::Crashed;  // no MsgDeregister, no cleanup
        } catch (const std::exception& e) {
            failed = true;
            failure = e.what();
        } catch (...) {
            failed = true;
            failure = "unknown engine failure";
        }
        const double task_seconds = task_timer.seconds();
        report.cells_computed += result.cells;

        const bool was_cancelled = slave_obs.cancelled_current();
        if (config.duration_hist != nullptr) {
            config.duration_hist->record(task_seconds);
        }
        if (config.lane != nullptr) {
            config.lane->span_end("task", t,
                                  (was_cancelled || failed) ? 1.0 : 0.0, pe);
        }

        if (failed) {
            ++report.engine_failures;
            uplink(net::MsgTaskFailed{pe, t, failure});
        } else if (was_cancelled) {
            ++report.tasks_cancelled;
        } else {
            slave_obs.send_final_rate(task_seconds);
            uplink(net::MsgTaskDone{pe, t, std::move(result)});
            ++completions;
        }

        // A Shutdown the cancellation poll consumed counts even when the
        // link closed right behind it.
        if (slave_obs.saw_shutdown()) return SlaveExit::Shutdown;
        if (inbox.closed()) return exit_on_closed_inbox();

        if (config.leave_after_tasks > 0 &&
            completions >= config.leave_after_tasks) {
            // Abandon whatever is still queued and leave the platform.
            report.left_early = true;
            uplink(net::MsgDeregister{pe});
            return SlaveExit::Left;
        }
    }
}

}  // namespace swh::runtime
