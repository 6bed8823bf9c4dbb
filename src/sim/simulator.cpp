#include "sim/simulator.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <variant>

#include "core/results.hpp"
#include "net/messages.hpp"
#include "obs/tracers.hpp"
#include "runtime/master_protocol.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace swh::sim {

namespace {

enum class EventKind : std::uint8_t {
    TaskFinish,
    Notify,
    Load,
    Leave,
    Join,
    Deliver,  ///< a master reply lands (assign_latency_s after it left)
};

struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< insertion order; breaks time ties
    EventKind kind = EventKind::TaskFinish;
    std::size_t pe = 0;
    std::uint64_t gen = 0;   ///< TaskFinish validity generation
    double factor = 1.0;     ///< Load
    std::size_t index = 0;   ///< Join: join_events index; Deliver: mail slot
};

struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
        if (a.time != b.time) return a.time > b.time;
        return a.seq > b.seq;
    }
};

/// The PE model: the DES counterpart of the runtime's slave loop. It
/// executes what the master assigns, reports progress and completions,
/// asks for work when its queue runs dry, and stops at MsgShutdown.
struct PeState {
    PeModelSpec spec;
    obs::TraceLane* lane = nullptr;  ///< this PE's "task" spans
    bool stopped = false;  ///< shut down by the master, or left
    double load_factor = 1.0;

    std::deque<core::TaskId> queue;  ///< assigned, not yet started
    bool busy = false;
    core::TaskId current = 0;
    double overhead_remaining = 0.0;
    double cells_remaining = 0.0;
    double last_advance = 0.0;
    std::uint64_t gen = 0;  ///< bumped whenever the finish time changes

    double cells_since_notify = 0.0;
    double last_notify = 0.0;
    bool notify_scheduled = false;

    PeReport report;
};

class Simulation {
public:
    explicit Simulation(const SimConfig& config)
        : config_(config),
          sched_(core::make_tasks_from_lengths(config.query_lengths,
                                               config.db_residues),
                 config.policy(), config.sched),
          merger_(config.query_lengths.size(), 1),
          recorder_(kInitialLaneCapacity),
          master_lane_(recorder_.lane("master", obs::Overflow::Grow)),
          sched_tracer_(&master_lane_, nullptr),
          // Liveness off and no engine failures: the protocol never
          // parks a retry or arms a liveness deadline, so next_deadline()
          // stays +inf and this pump has no timer to drive.
          protocol_(sched_, merger_,
                    config.pes.size() + config.join_events.size(),
                    runtime::RuntimeOptions{}, &master_lane_) {
        // Attached before run() registers the platform, so the lane
        // records the registrations too (as MasterHost's does).
        sched_.set_observer(&sched_tracer_);
        SWH_REQUIRE(config_.db_residues > 0, "db_residues must be positive");
        SWH_REQUIRE(!config_.query_lengths.empty(), "no queries");
        SWH_REQUIRE(!config_.pes.empty() || !config_.join_events.empty(),
                    "platform has no PEs");
        SWH_REQUIRE(config_.notify_period_s > 0.0,
                    "notify period must be positive");
    }

    SimReport run();

private:
    double speed(const PeState& pe) const {
        return pe.spec.effective_gcups(config_.db_residues) * 1e9 *
               pe.load_factor;
    }

    void push(Event e) {
        e.seq = next_seq_++;
        heap_.push(e);
    }

    /// Hands one PE message to the master protocol at `now` and posts
    /// each reply for delivery assign_latency_s later.
    void send(net::MasterMsg msg, double now) {
        protocol_.on_message(std::move(msg), now, out_);
        for (runtime::MasterAction& action : out_) {
            SWH_REQUIRE(action.msg.has_value(),
                        "the master abandoned a PE with liveness off");
            mail_.push_back(std::move(*action.msg));
            push(Event{now + config_.assign_latency_s, 0, EventKind::Deliver,
                       action.pe, 0, 1.0, mail_.size() - 1});
        }
        out_.clear();
    }

    std::size_t add_pe(const PeModelSpec& spec, double now) {
        PeState& pe = pes_.emplace_back();
        pe.spec = spec;
        pe.lane = &recorder_.lane(spec.label, obs::Overflow::Grow);
        pe.report.label = spec.label;
        pe.report.kind = spec.kind;
        pe.last_advance = now;
        return pes_.size() - 1;
    }

    /// Applies elapsed virtual time to a PE's running task.
    void advance(std::size_t i, double now) {
        PeState& pe = pes_[i];
        double dt = now - pe.last_advance;
        pe.last_advance = now;
        if (!pe.busy || dt <= 0.0) return;
        pe.report.busy_seconds += dt;
        const double o = std::min(pe.overhead_remaining, dt);
        pe.overhead_remaining -= o;
        dt -= o;
        const double done = dt * speed(pe);
        const double counted = std::min(done, pe.cells_remaining);
        pe.cells_remaining -= counted;
        pe.report.cells += static_cast<std::uint64_t>(counted);
        computed_cells_ += static_cast<std::uint64_t>(counted);
        pe.cells_since_notify += counted;
    }

    void schedule_finish(std::size_t i, double now) {
        PeState& pe = pes_[i];
        SWH_REQUIRE(pe.busy, "scheduling finish on an idle PE");
        const double s = speed(pe);
        SWH_REQUIRE(s > 0.0, "PE speed must be positive");
        const double when =
            now + pe.overhead_remaining + pe.cells_remaining / s;
        ++pe.gen;
        push(Event{when, 0, EventKind::TaskFinish, i, pe.gen, 1.0, 0});
    }

    void ensure_notify(std::size_t i, double now) {
        PeState& pe = pes_[i];
        if (pe.notify_scheduled) return;
        pe.notify_scheduled = true;
        pe.last_notify = now;
        pe.cells_since_notify = 0.0;
        push(Event{now + config_.notify_period_s, 0, EventKind::Notify, i, 0,
                   1.0, 0});
    }

    void start_next(std::size_t i, double now) {
        PeState& pe = pes_[i];
        pe.current = pe.queue.front();
        pe.queue.pop_front();
        pe.busy = true;
        pe.overhead_remaining = pe.spec.task_overhead_s;
        pe.cells_remaining =
            static_cast<double>(sched_.task(pe.current).cells);
        pe.last_advance = now;
        pe.lane->emit(now, obs::EventKind::SpanBegin,
                      static_cast<core::PeId>(i), pe.current, 0.0, "task");
        schedule_finish(i, now);
        ensure_notify(i, now);
    }

    /// Closes the PE's "task" span with `outcome` (0 finished, 1
    /// aborted), as run_slave_loop does.
    void end_span(std::size_t i, double now, double outcome) {
        pes_[i].lane->emit(now, obs::EventKind::SpanEnd,
                           static_cast<core::PeId>(i), pes_[i].current,
                           outcome, "task");
        all_idle_time_ = std::max(all_idle_time_, now);
    }

    /// Aborts the PE's current task (end-of-run Shutdown or node leave).
    void abort_current(std::size_t i, double now) {
        PeState& pe = pes_[i];
        if (!pe.busy) return;
        advance(i, now);
        end_span(i, now, 1.0);
        ++pe.report.tasks_aborted;
        pe.busy = false;
        ++pe.gen;  // invalidate the scheduled finish
    }

    void handle_finish(const Event& ev) {
        PeState& pe = pes_[ev.pe];
        if (!pe.busy || ev.gen != pe.gen) return;  // stale
        const double now = ev.time;
        advance(ev.pe, now);
        pe.cells_remaining = 0.0;
        pe.busy = false;
        const auto id = static_cast<core::PeId>(ev.pe);
        const core::Task task = sched_.task(pe.current);
        send(net::MsgTaskDone{id, task.id,
                              core::TaskResult{task.id, task.query_index,
                                               task.cells, {}}},
             now);
        end_span(ev.pe, now, 0.0);
        if (sched_.task_winner(task.id) == id && sched_.all_done()) {
            makespan_ = now;
        }

        if (!pe.queue.empty()) {
            start_next(ev.pe, now);
        } else {
            send(net::MsgWorkRequest{id}, now);
        }
    }

    void handle_deliver(const Event& ev) {
        PeState& pe = pes_[ev.pe];
        const net::SlaveMsg msg = std::move(mail_[ev.index]);
        if (pe.stopped) return;
        if (const auto* assign = std::get_if<net::MsgAssign>(&msg)) {
            for (const core::Task& t : assign->tasks) pe.queue.push_back(t.id);
            if (!pe.busy) start_next(ev.pe, ev.time);
        } else if (std::holds_alternative<net::MsgShutdown>(msg)) {
            // Every task is settled: whatever still runs is a loser.
            abort_current(ev.pe, ev.time);
            pe.queue.clear();
            pe.stopped = true;
        } else if (std::holds_alternative<net::MsgNoWorkYet>(msg)) {
            // Stay idle: the master pushes an Assign or a Shutdown.
        }
    }

    void handle_notify(const Event& ev) {
        PeState& pe = pes_[ev.pe];
        pe.notify_scheduled = false;
        if (pe.stopped) return;
        const double now = ev.time;
        advance(ev.pe, now);
        if (!pe.busy) return;  // went idle; next start re-arms notify
        const double elapsed = now - pe.last_notify;
        if (elapsed > 0.0) {
            const double rate = pe.cells_since_notify / elapsed;
            send(net::MsgProgress{static_cast<core::PeId>(ev.pe), rate}, now);
        }
        pe.cells_since_notify = 0.0;
        pe.last_notify = now;
        pe.notify_scheduled = true;
        push(Event{now + config_.notify_period_s, 0, EventKind::Notify,
                   ev.pe, 0, 1.0, 0});
    }

    void handle_load(const Event& ev) {
        PeState& pe = pes_[ev.pe];
        advance(ev.pe, ev.time);
        pe.load_factor = ev.factor;
        SWH_REQUIRE(pe.load_factor > 0.0,
                    "load factor must stay positive (use Leave to stop a PE)");
        if (pe.busy) schedule_finish(ev.pe, ev.time);
    }

    void handle_leave(const Event& ev) {
        PeState& pe = pes_[ev.pe];
        if (pe.stopped) return;
        abort_current(ev.pe, ev.time);
        pe.queue.clear();
        pe.stopped = true;
        send(net::MsgDeregister{static_cast<core::PeId>(ev.pe)}, ev.time);
    }

    void handle_join(const Event& ev) {
        const std::size_t i = add_pe(config_.join_events[ev.index].pe, ev.time);
        const auto id = static_cast<core::PeId>(i);
        send(net::MsgRegister{id, pes_[i].spec.kind}, ev.time);
        send(net::MsgWorkRequest{id}, ev.time);
    }

    /// Lanes start this small and grow: a DES run is cheap, and most
    /// are far shorter than a real run's ring.
    static constexpr std::size_t kInitialLaneCapacity = 256;

    const SimConfig& config_;
    core::SchedulerCore sched_;
    core::ResultMerger merger_;
    obs::TraceRecorder recorder_;
    obs::TraceLane& master_lane_;
    obs::SchedTracer sched_tracer_;
    runtime::MasterProtocol protocol_;
    std::vector<runtime::MasterAction> out_;
    std::vector<net::SlaveMsg> mail_;  ///< replies in flight, by Deliver
    std::priority_queue<Event, std::vector<Event>, EventLater> heap_;
    std::uint64_t next_seq_ = 0;
    std::vector<PeState> pes_;
    std::uint64_t computed_cells_ = 0;
    double makespan_ = 0.0;
    double all_idle_time_ = 0.0;
};

SimReport Simulation::run() {
    pes_.reserve(config_.pes.size() + config_.join_events.size());
    for (const PeModelSpec& spec : config_.pes) add_pe(spec, 0.0);
    for (const LoadEvent& e : config_.load_events) {
        SWH_REQUIRE(e.pe_index < config_.pes.size(),
                    "load event targets unknown PE");
        push(Event{e.time, 0, EventKind::Load, e.pe_index, 0,
                   e.speed_factor, 0});
    }
    for (const LeaveEvent& e : config_.leave_events) {
        SWH_REQUIRE(e.pe_index < config_.pes.size(),
                    "leave event targets unknown PE");
        push(Event{e.time, 0, EventKind::Leave, e.pe_index, 0, 1.0, 0});
    }
    for (std::size_t j = 0; j < config_.join_events.size(); ++j) {
        push(Event{config_.join_events[j].time, 0, EventKind::Join, 0, 0,
                   1.0, j});
    }
    // Static platform members all register at t = 0, then ask for their
    // first package in PE order.
    for (std::size_t i = 0; i < config_.pes.size(); ++i) {
        send(net::MsgRegister{static_cast<core::PeId>(i), pes_[i].spec.kind},
             0.0);
    }
    for (std::size_t i = 0; i < config_.pes.size(); ++i) {
        send(net::MsgWorkRequest{static_cast<core::PeId>(i)}, 0.0);
    }

    while (!heap_.empty()) {
        const Event ev = heap_.top();
        heap_.pop();
        SWH_REQUIRE(ev.time <= config_.max_time,
                    "simulation exceeded max_time (misconfigured scenario?)");
        switch (ev.kind) {
            case EventKind::TaskFinish:
                handle_finish(ev);
                break;
            case EventKind::Notify:
                handle_notify(ev);
                break;
            case EventKind::Load:
                handle_load(ev);
                break;
            case EventKind::Leave:
                handle_leave(ev);
                break;
            case EventKind::Join:
                handle_join(ev);
                break;
            case EventKind::Deliver:
                handle_deliver(ev);
                break;
        }
    }
    SWH_REQUIRE(sched_.all_done(),
                "simulation drained its events with unfinished tasks");
    SWH_REQUIRE(protocol_.finished(),
                "simulation drained its events with a PE still running");
    SWH_AUDIT_SWEEP(sched_.check_invariants());

    const runtime::RunReport master = protocol_.take_report();
    SimReport report;
    report.makespan = makespan_;
    report.all_idle_time = all_idle_time_;
    report.accepted_cells = master.accepted_cells;
    report.computed_cells = computed_cells_;
    report.gcups = makespan_ > 0.0
                       ? static_cast<double>(master.accepted_cells) /
                             makespan_ / 1e9
                       : 0.0;
    report.replicas_issued = master.replicas_issued;
    report.completions_discarded = master.completions_discarded;
    for (std::size_t i = 0; i < pes_.size(); ++i) {
        PeReport pe = pes_[i].report;
        pe.results_accepted = master.slaves[i].results_accepted;
        pe.results_discarded = master.slaves[i].results_discarded;
        report.pes.push_back(std::move(pe));
    }
    report.trace = recorder_.drain();
    return report;
}

}  // namespace

SimReport simulate(const SimConfig& config) {
    Simulation sim(config);
    return sim.run();
}

obs::BalanceOptions balance_options(const SimReport& report) {
    obs::BalanceOptions options;
    options.horizon_s = report.all_idle_time;
    for (const PeReport& pe : report.pes) {
        options.cells_by_label.emplace_back(pe.label,
                                            static_cast<double>(pe.cells));
    }
    return options;
}

}  // namespace swh::sim
