#include "ledger.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/wire.hpp"
#include "util/stats.hpp"

namespace pb {

namespace {

constexpr const char* kEngineSpan = "bench:engine.execute";
constexpr const char* kPolicySpan = "bench:policy.batch_size";

}  // namespace

TimedEngine::TimedEngine(std::unique_ptr<ComputeEngine> inner,
                         EngineLedger& ledger, const Clock::time_point& epoch,
                         swh::obs::TraceLane* own_lane)
    : inner_(std::move(inner)),
      ledger_(ledger),
      epoch_(epoch),
      own_lane_(own_lane) {}

swh::core::TaskResult TimedEngine::execute(
    const swh::align::Sequence& query, std::uint32_t query_index,
    swh::core::TaskId task, const swh::db::Database& database,
    swh::engines::ExecutionObserver* observer) {
    swh::obs::TraceLane* lane =
        observer != nullptr ? observer->trace_lane() : nullptr;
    if (lane == nullptr) lane = own_lane_;

    const Clock::time_point start = Clock::now();
    if (ledger_.calls > 0) {
        ledger_.gap_ms.push_back(
            1e3 * (seconds_between(epoch_, start) - ledger_.last_return_s));
    }
    if (lane != nullptr) lane->span_begin(kEngineSpan, task);
    swh::core::TaskResult result =
        inner_->execute(query, query_index, task, database, observer);
    const Clock::time_point end = Clock::now();
    if (lane != nullptr) lane->span_end(kEngineSpan, task);

    const double took = seconds_between(start, end);
    ++ledger_.calls;
    ledger_.busy_s += took;
    ledger_.cells += result.cells;
    ledger_.task_ms.push_back(1e3 * took);
    ledger_.last_return_s = seconds_between(epoch_, end);
    ledger_.results.push_back(result);
    return result;
}

TimedPolicy::TimedPolicy(std::unique_ptr<AllocationPolicy> inner,
                         std::vector<double>& call_us,
                         swh::obs::TraceLane* lane)
    : inner_(std::move(inner)), call_us_(call_us), lane_(lane) {}

std::size_t TimedPolicy::batch_size(
    const swh::core::SlaveView& requester,
    std::span<const swh::core::SlaveView> all, std::size_t ready_remaining,
    std::size_t total_tasks) {
    if (lane_ != nullptr) lane_->span_begin(kPolicySpan);
    const Clock::time_point start = Clock::now();
    const std::size_t n =
        inner_->batch_size(requester, all, ready_remaining, total_tasks);
    call_us_.push_back(1e6 * seconds_between(start, Clock::now()));
    if (lane_ != nullptr) lane_->span_end(kPolicySpan);
    return n;
}

void SchedLedger::on_package_sized(swh::core::PeId pe, std::size_t tasks,
                                   bool, double) {
    packages.push_back(Package{pe, {}});
    packages.back().tasks.reserve(tasks);
}

void SchedLedger::on_task_assigned(swh::core::PeId pe, swh::core::TaskId task,
                                   double) {
    // The scheduler reports a package before its tasks.
    if (packages.empty()) packages.push_back(Package{pe, {}});
    packages.back().tasks.push_back(task);
}

void SchedLedger::on_replica_issued(swh::core::PeId pe,
                                    swh::core::TaskId task, double now) {
    ++replicas;
    on_task_assigned(pe, task, now);
}

void SchedLedger::on_progress(swh::core::PeId pe, double,
                              double cells_per_second, double) {
    progress.push_back(swh::net::MsgProgress{pe, cells_per_second});
}

void replay_sched_events(const swh::obs::TraceLaneData& master,
                         SchedLedger& ledger) {
    using swh::obs::EventKind;
    for (const swh::obs::TraceEvent& e : master.events) {
        switch (e.kind) {
            case EventKind::PackageSized:
                ledger.on_package_sized(
                    e.pe, static_cast<std::size_t>(e.value), false, e.t);
                break;
            case EventKind::TaskAssigned:
                ledger.on_task_assigned(e.pe, e.task, e.t);
                break;
            case EventKind::ReplicaIssued:
                ledger.on_replica_issued(e.pe, e.task, e.t);
                break;
            case EventKind::Progress:
                ledger.on_progress(e.pe, e.t, e.value, 0.0);
                break;
            default:
                break;
        }
    }
}

double median(std::vector<double> xs) { return swh::percentile(xs, 50.0); }

Tail tail_of(const std::vector<double>& xs) {
    Tail t;
    t.n = xs.size();
    t.p50 = swh::percentile(xs, 50.0);
    t.value = t.p50;
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (static_cast<double>(t.n) * (1.0 - p / 100.0) >= 10.0) {
            t.value = swh::percentile(xs, p);
            t.pct = p;
            break;
        }
    }
    return t;
}

namespace {

/// Runs `pass` until at least `min_seconds` have elapsed and returns the
/// mean seconds per pass.
template <typename Pass>
double seconds_per_pass(double min_seconds, Pass&& pass) {
    std::size_t passes = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
        pass();
        ++passes;
        elapsed = seconds_between(start, Clock::now());
    } while (elapsed < min_seconds);
    return elapsed / static_cast<double>(passes);
}

}  // namespace

WireCost time_wire_mix(const std::vector<swh::net::MasterMsg>& up,
                       const std::vector<swh::net::SlaveMsg>& down,
                       double min_seconds) {
    namespace wire = swh::net::wire;
    const std::size_t frames = up.size() + down.size();
    if (frames == 0) throw std::runtime_error("empty wire mix");

    std::vector<std::uint8_t> buf;
    std::size_t sink = 0;
    const double encode_s = seconds_per_pass(min_seconds, [&] {
        for (const swh::net::MasterMsg& m : up) {
            buf.clear();
            wire::encode(m, buf);
            sink += buf.size();
        }
        for (const swh::net::SlaveMsg& m : down) {
            buf.clear();
            wire::encode(m, buf);
            sink += buf.size();
        }
    });

    // Decode the frame bodies (the bytes after the u32 length prefix).
    std::vector<std::vector<std::uint8_t>> up_frames(up.size());
    std::vector<std::vector<std::uint8_t>> down_frames(down.size());
    for (std::size_t i = 0; i < up.size(); ++i) wire::encode(up[i], up_frames[i]);
    for (std::size_t i = 0; i < down.size(); ++i) {
        wire::encode(down[i], down_frames[i]);
    }
    std::string error;
    const double decode_s = seconds_per_pass(min_seconds, [&] {
        for (const std::vector<std::uint8_t>& f : up_frames) {
            const auto msg = wire::decode_master(f.data() + 4, f.size() - 4,
                                                 &error);
            if (!msg.has_value()) {
                throw std::runtime_error("wire mix decode failed: " + error);
            }
            sink += msg->index();
        }
        for (const std::vector<std::uint8_t>& f : down_frames) {
            const auto msg = wire::decode_slave(f.data() + 4, f.size() - 4,
                                                &error);
            if (!msg.has_value()) {
                throw std::runtime_error("wire mix decode failed: " + error);
            }
            sink += msg->index();
        }
    });
    if (sink == 0) throw std::runtime_error("wire mix encoded nothing");

    const double per_frame = 1e6 / static_cast<double>(frames);
    return WireCost{encode_s * per_frame, decode_s * per_frame};
}

}  // namespace pb
