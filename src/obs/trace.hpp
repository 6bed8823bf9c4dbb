#pragma once

// Structured run tracing for both runtimes and the simulator. Each
// participating thread owns a TraceLane — a fixed-capacity ring of
// typed events stamped on a steady clock shared by the whole recorder,
// or on the caller's clock (the scheduler's `now`, virtual time in the
// simulator) — so capture is lock-free, allocation-free in steady
// state, and near-free when disabled (one relaxed atomic load per
// emit). The scheduler's "master" lane and the simulator's lanes are
// the exception: they grow instead of dropping, because their readers
// need every event. After
// the run quiesces, drain() turns the rings into a plain Trace that the
// exporters (Chrome trace-event JSON for Perfetto, CSV, ASCII Gantt)
// consume.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"
#include "util/annotations.hpp"
#include "util/ring_buffer.hpp"

namespace swh::obs {

/// Full task-lifecycle + transport + span taxonomy (DESIGN.md
/// "Observability"). Scheduler-decision kinds mirror core::SchedObserver.
enum class EventKind : std::uint8_t {
    SlaveRegistered,     ///< pe, value = PeKind
    SlaveDeregistered,   ///< pe
    PackageSized,        ///< pe, value = tasks in the package
    TaskAssigned,        ///< pe, task
    ReplicaIssued,       ///< pe, task (workload-adjustment re-assignment)
    Progress,            ///< pe, value = realised cells/s, aux = the
                         ///< estimate (cells/s) the scheduler held
                         ///< before this sample, 0 while it had no
                         ///< history
    CompletedAccepted,   ///< pe, task (first finisher)
    CompletedDiscarded,  ///< pe, task (lost replica race)
    TaskFailed,          ///< pe, task, value = 1 if abandoned (no retry)
    SlavePresumedDead,   ///< pe (liveness timeout expired)
    ChannelSend,         ///< value = queue depth after the send
    ChannelRecv,         ///< value = queue depth after the recv
    SpanBegin,           ///< name, task — task/kernel span opens
    SpanEnd,             ///< name, task, value = outcome (0 ok, 1 aborted)
};

const char* to_string(EventKind kind);

/// Sentinel for events not tied to a task.
constexpr core::TaskId kNoTask = ~core::TaskId{0};

/// One captured event. POD on purpose: emitting must never allocate.
/// `name` must point at static-storage strings (string literals).
struct TraceEvent {
    double t = 0.0;  ///< seconds since the recorder epoch
    EventKind kind = EventKind::Progress;
    core::PeId pe = core::kInvalidPe;
    core::TaskId task = kNoTask;
    double value = 0.0;
    const char* name = nullptr;
    double aux = 0.0;  ///< second value; see the kind's comment
};

/// What a full lane does with the next event.
enum class Overflow : std::uint8_t {
    DropOldest,  ///< a ring: keeps the newest events, counts the rest
    Grow,        ///< doubles its capacity; never drops (the master lane
                 ///< and the simulator's lanes, whose length the run's
                 ///< task count bounds)
};

class TraceRecorder;

/// One thread's capture stream. Obtain via TraceRecorder::lane(); the
/// reference stays valid for the recorder's lifetime. NOT thread-safe:
/// a lane belongs to exactly one thread (or to one lock, e.g. a
/// channel's mutex — see ChannelTracer), which is what guarantees the
/// per-lane event order the tests assert.
class TraceLane {
public:
    /// Records an event stamped now. When the recorder is disabled this
    /// is a single relaxed load + branch; when full, a DropOldest lane
    /// drops the OLDEST event (dropped() counts them) so recent history
    /// survives, and a Grow lane doubles its ring.
    inline void emit(EventKind kind, core::PeId pe = core::kInvalidPe,
                     core::TaskId task = kNoTask, double value = 0.0,
                     const char* name = nullptr);

    /// Records an event stamped `t` seconds: the caller's clock, e.g.
    /// the `now` the scheduler was given (wall time on the run clock,
    /// which starts at the recorder epoch, or DES virtual time).
    inline void emit(double t, EventKind kind,
                     core::PeId pe = core::kInvalidPe,
                     core::TaskId task = kNoTask, double value = 0.0,
                     const char* name = nullptr, double aux = 0.0);

    void span_begin(const char* name, core::TaskId task = kNoTask,
                    core::PeId pe = core::kInvalidPe) {
        emit(EventKind::SpanBegin, pe, task, 0.0, name);
    }

    /// `outcome` 0 = completed, 1 = aborted/cancelled (renders as 'x'
    /// in the Gantt).
    void span_end(const char* name, core::TaskId task = kNoTask,
                  double outcome = 0.0,
                  core::PeId pe = core::kInvalidPe) {
        emit(EventKind::SpanEnd, pe, task, outcome, name);
    }

    const std::string& label() const { return label_; }
    std::uint64_t dropped() const { return dropped_; }
    std::size_t size() const { return ring_.size(); }

private:
    friend class TraceRecorder;
    TraceLane(TraceRecorder* recorder, std::string label,
              std::size_t capacity, Overflow overflow)
        : recorder_(recorder),
          label_(std::move(label)),
          overflow_(overflow),
          ring_(capacity) {}

    TraceRecorder* recorder_;
    std::string label_;
    Overflow overflow_;
    RingBuffer<TraceEvent> ring_;
    std::uint64_t dropped_ = 0;
};

/// Drained, exporter-ready form of one lane.
struct TraceLaneData {
    std::string label;
    std::vector<TraceEvent> events;  ///< chronological (emission order)
    std::uint64_t dropped = 0;
};

/// A complete captured run: one entry per lane, in registration order.
/// Plain data: TraceRecorder::drain() yields it in every execution mode
/// (the simulator returns its own as SimReport::trace), and tests build
/// small ones by hand.
struct Trace {
    std::vector<TraceLaneData> lanes;

    std::size_t total_events() const {
        std::size_t n = 0;
        for (const TraceLaneData& l : lanes) n += l.events.size();
        return n;
    }

    /// Events lost to ring overflow across all lanes. Non-zero means the
    /// exporters see a truncated history; every exporter surfaces this.
    std::uint64_t total_dropped() const {
        std::uint64_t n = 0;
        for (const TraceLaneData& l : lanes) n += l.dropped;
        return n;
    }
};

/// One SpanBegin/SpanEnd pair of a lane, the one reading of spans that
/// the balance audit (depth 0: tasks) and the Gantt chart (every depth)
/// share.
struct LaneSpan {
    core::PeId pe = core::kInvalidPe;  ///< the begin's, else the end's
    core::TaskId task = kNoTask;       ///< the begin's
    double start = 0.0;
    double end = 0.0;
    bool aborted = false;  ///< ended with a non-zero value, or never
    std::size_t depth = 0;  ///< 0 = outermost
};

/// Pairs the lane's SpanBegin/SpanEnd events with a stack (spans only
/// nest): the closed spans in the order they end, then the begins left
/// open (run cut short), outermost first, each closed at the lane's
/// last timestamp as aborted.
std::vector<LaneSpan> lane_spans(const TraceLaneData& lane);

/// Label of the lane a ChannelTracer writes for `peer`'s inbox:
/// "chan:<peer>". A channel lane carries message sends and receives
/// only — no task span and no scheduler decision.
std::string channel_lane_label(std::string_view peer);
bool is_channel_lane(std::string_view label);

/// Owns the lanes and the shared clock. Lane registration takes a lock;
/// emission does not. Typical lifecycle: construct, hand lanes out,
/// reset_epoch() at run start, run, drain() after every emitting thread
/// has quiesced (drain is NOT synchronised against concurrent emits).
class TraceRecorder {
public:
    using Clock = std::chrono::steady_clock;

    static constexpr std::size_t kDefaultLaneCapacity = 1 << 14;

    explicit TraceRecorder(std::size_t lane_capacity = kDefaultLaneCapacity,
                           bool enabled = true)
        : enabled_(enabled),
          lane_capacity_(lane_capacity),
          epoch_(Clock::now()) {}

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void set_enabled(bool on) {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /// Seconds since the epoch on the shared steady clock.
    double now_s() const {
        return std::chrono::duration<double>(Clock::now() - epoch_).count();
    }

    /// Re-zeroes the timeline at `epoch`, the instant the run's own
    /// clock started, so events stamped on either clock share one axis.
    void reset_epoch(Clock::time_point epoch) { epoch_ = epoch; }

    /// Registers a new capture stream (always a new lane, even for a
    /// repeated label) of the recorder's lane capacity. Thread-safe; the
    /// returned reference is stable. The lane itself is NOT guarded by
    /// the recorder lock — it belongs to one thread (see TraceLane).
    TraceLane& lane(std::string label,
                    Overflow overflow = Overflow::DropOldest)
        SWH_EXCLUDES(mu_) {
        const swh::LockGuard lock(mu_);
        lanes_.push_back(std::unique_ptr<TraceLane>(new TraceLane(
            this, std::move(label), lane_capacity_, overflow)));
        return *lanes_.back();
    }

    /// Copies every lane's ring into a flat Trace. Call only after the
    /// emitting threads have joined/quiesced.
    Trace drain() const SWH_EXCLUDES(mu_);

    /// Sum of every lane's dropped count. Like drain(), only meaningful
    /// after the emitting threads have quiesced (lane counters are
    /// owned by their emitting threads, not the recorder lock).
    std::uint64_t dropped_total() const SWH_EXCLUDES(mu_);

private:
    std::atomic<bool> enabled_;
    const std::size_t lane_capacity_;
    /// Written only by reset_epoch(), which the owner calls before the
    /// emitting threads start (or after they quiesce) — never guarded
    /// by the lane-registry lock.
    SWH_NOT_GUARDED Clock::time_point epoch_;
    mutable swh::Mutex mu_;
    std::vector<std::unique_ptr<TraceLane>> lanes_ SWH_GUARDED_BY(mu_);
};

inline void TraceLane::emit(EventKind kind, core::PeId pe, core::TaskId task,
                            double value, const char* name) {
    if (!recorder_->enabled()) return;
    emit(recorder_->now_s(), kind, pe, task, value, name);
}

inline void TraceLane::emit(double t, EventKind kind, core::PeId pe,
                            core::TaskId task, double value,
                            const char* name, double aux) {
    if (!recorder_->enabled()) return;
    if (ring_.full()) {
        if (overflow_ == Overflow::Grow) {
            ring_.grow();
        } else {
            ++dropped_;
        }
    }
    ring_.push(TraceEvent{t, kind, pe, task, value, name, aux});
}

// ---- Exporters ----------------------------------------------------------

/// Chrome trace-event JSON ({"traceEvents":[...]}), loadable in Perfetto
/// (ui.perfetto.dev) and chrome://tracing. Lanes become named threads of
/// pid 0; spans become B/E duration events, channel depths become "C"
/// counter tracks, everything else instant events with args.
void export_chrome_json(const Trace& trace, std::ostream& os);
std::string chrome_json(const Trace& trace);

/// Flat CSV: lane,label,t_seconds,kind,pe,task,value,name.
void export_csv(const Trace& trace, std::ostream& os);

/// ASCII Gantt of the trace's SpanBegin/SpanEnd pairs, one row per lane
/// that carries spans: the paper's Fig. 5 chart, for a real run and a
/// simulated one alike (rendered through obs::render_gantt).
std::string render_trace_gantt(const Trace& trace, double time_step);

}  // namespace swh::obs
