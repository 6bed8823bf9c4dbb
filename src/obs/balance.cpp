#include "obs/balance.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace swh::obs {

namespace {

/// A top-level task span and its lane, the unit both the time
/// decomposition and the critical chain operate on (nested kernel spans
/// are charged to their enclosing task).
struct FlatSpan : LaneSpan {
    std::size_t lane = 0;
};

/// The lane's depth-0 spans, by start time.
std::vector<FlatSpan> top_level_spans(const TraceLaneData& lane,
                                      std::size_t lane_index) {
    std::vector<FlatSpan> out;
    for (const LaneSpan& s : lane_spans(lane)) {
        if (s.depth == 0) out.push_back(FlatSpan{s, lane_index});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const FlatSpan& a, const FlatSpan& b) {
                         return a.start < b.start;
                     });
    return out;
}

std::uint64_t audited_dropped(const Trace& trace) {
    std::uint64_t n = 0;
    for (const TraceLaneData& lane : trace.lanes) {
        if (!is_channel_lane(lane.label)) n += lane.dropped;
    }
    return n;
}

std::string pct(double num, double den) {
    return format_double(den > 0.0 ? 100.0 * num / den : 0.0, 1);
}

}  // namespace

BalanceReport analyze_balance(const Trace& trace,
                              const BalanceOptions& options) {
    BalanceReport rep;
    rep.dropped_events = audited_dropped(trace);

    // Assignment timeline per (pe, task), from whichever lane carries
    // the scheduler's decisions (the master lane SchedTracer writes).
    std::map<std::pair<core::PeId, core::TaskId>, std::vector<double>>
        assigns;
    std::map<core::PeId, std::size_t> replicas_by_pe;
    double horizon = 0.0;
    for (const TraceLaneData& lane : trace.lanes) {
        if (is_channel_lane(lane.label)) continue;
        rep.events_analyzed += lane.events.size();
        for (const TraceEvent& e : lane.events) {
            horizon = std::max(horizon, e.t);
            if (e.kind == EventKind::TaskAssigned ||
                e.kind == EventKind::ReplicaIssued) {
                assigns[{e.pe, e.task}].push_back(e.t);
                if (e.kind == EventKind::ReplicaIssued) {
                    ++replicas_by_pe[e.pe];
                }
            }
        }
    }
    for (auto& [key, times] : assigns) std::sort(times.begin(), times.end());
    if (options.horizon_s > 0.0) horizon = options.horizon_s;
    rep.horizon_s = horizon;

    // Per-PE decomposition over each span-carrying lane.
    std::vector<FlatSpan> all_spans;
    for (std::size_t li = 0; li < trace.lanes.size(); ++li) {
        const TraceLaneData& lane = trace.lanes[li];
        if (is_channel_lane(lane.label)) continue;
        const std::vector<FlatSpan> spans = top_level_spans(lane, li);
        if (spans.empty()) continue;

        BalancePe pe;
        pe.label = lane.label;
        pe.pe = spans.front().pe;
        pe.first_start_s = spans.front().start;
        double prev_end = 0.0;
        for (const FlatSpan& s : spans) {
            pe.busy_s += s.end - s.start;
            pe.last_end_s = std::max(pe.last_end_s, s.end);
            if (s.aborted) {
                ++pe.tasks_aborted;
            } else {
                ++pe.tasks_accepted;
            }
            // Dispatch gap: the slice of the inter-span gap after the
            // assignment landed. Without an assignment record the gap
            // is plain idle (the PE was starved, not waiting on the
            // wire).
            const auto it = assigns.find({s.pe, s.task});
            if (it != assigns.end()) {
                double assign_t = -1.0;
                for (const double t : it->second) {
                    if (t <= s.start) assign_t = t;
                }
                if (assign_t >= 0.0) {
                    const double gap = s.start - prev_end;
                    const double comm = s.start - std::max(assign_t, prev_end);
                    pe.comm_s += std::clamp(comm, 0.0, std::max(gap, 0.0));
                }
            }
            prev_end = std::max(prev_end, s.end);
        }
        pe.idle_s = std::max(0.0, horizon - pe.busy_s - pe.comm_s);
        if (const auto rit = replicas_by_pe.find(pe.pe);
            rit != replicas_by_pe.end()) {
            pe.replicas_received = rit->second;
        }

        for (const auto& [label, cells] : options.cells_by_label) {
            if (label == lane.label) {
                pe.cells = cells;
                break;
            }
        }
        pe.cells_per_second = pe.busy_s > 0.0 ? pe.cells / pe.busy_s : 0.0;

        rep.pes.push_back(std::move(pe));
        all_spans.insert(all_spans.end(), spans.begin(), spans.end());
    }

    rep.pe_count = rep.pes.size();
    double max_busy = 0.0;
    for (const BalancePe& pe : rep.pes) {
        rep.total_busy_s += pe.busy_s;
        rep.total_comm_s += pe.comm_s;
        rep.total_idle_s += pe.idle_s;
        max_busy = std::max(max_busy, pe.busy_s);
    }
    if (rep.pe_count > 0) {
        const double mean_busy =
            rep.total_busy_s / static_cast<double>(rep.pe_count);
        rep.ideal_makespan_s = mean_busy;
        rep.imbalance_ratio = mean_busy > 0.0 ? max_busy / mean_busy : 0.0;
        rep.efficiency = horizon > 0.0 ? mean_busy / horizon : 0.0;
    }

    // Straggler: latest last completion; the tail is what a perfect
    // placement of that final work could have clawed back.
    for (std::size_t i = 0; i < rep.pes.size(); ++i) {
        if (rep.straggler == BalanceReport::kNoStraggler ||
            rep.pes[i].last_end_s > rep.pes[rep.straggler].last_end_s) {
            rep.straggler = i;
        }
    }
    if (rep.straggler != BalanceReport::kNoStraggler) {
        double runner_up = 0.0;
        for (std::size_t i = 0; i < rep.pes.size(); ++i) {
            if (i != rep.straggler) {
                runner_up = std::max(runner_up, rep.pes[i].last_end_s);
            }
        }
        rep.straggler_tail_s =
            rep.pes.size() > 1
                ? std::max(0.0, rep.pes[rep.straggler].last_end_s - runner_up)
                : 0.0;
    }

    // Critical path: greedy backward walk. From the latest-ending span,
    // repeatedly step to the latest span that finished by the time the
    // current one started; a gap beyond the tolerance means the current
    // span was arrival-bound (nothing upstream was holding it up), so
    // the chain starts there. Ties break deterministically on
    // (end, lane, task, start).
    rep.gap_tolerance_s = options.gap_tolerance_s > 0.0
                              ? options.gap_tolerance_s
                              : 0.05 * horizon;
    if (!all_spans.empty()) {
        auto later = [](const FlatSpan& a, const FlatSpan& b) {
            if (a.end != b.end) return a.end > b.end;
            if (a.lane != b.lane) return a.lane < b.lane;
            if (a.task != b.task) return a.task < b.task;
            return a.start < b.start;
        };
        const double eps = 1e-9 * std::max(horizon, 1.0);
        const FlatSpan* cur = &*std::min_element(
            all_spans.begin(), all_spans.end(), later);
        std::vector<CriticalStep> chain;
        double wait_below = 0.0;  // gap bridged into the step below
        while (cur != nullptr) {
            chain.push_back(CriticalStep{cur->pe, cur->lane, cur->task,
                                         cur->start, cur->end, 0.0});
            if (chain.size() >= 2) chain[chain.size() - 2].wait_s = wait_below;
            const FlatSpan* pred = nullptr;
            for (const FlatSpan& s : all_spans) {
                if (s.end > cur->start + eps) continue;
                if (pred == nullptr || later(s, *pred)) pred = &s;
            }
            if (pred == nullptr ||
                cur->start - pred->end > rep.gap_tolerance_s) {
                break;
            }
            wait_below = std::max(0.0, cur->start - pred->end);
            cur = pred;
        }
        std::reverse(chain.begin(), chain.end());
        rep.critical_path = std::move(chain);
        rep.critical_path_s =
            rep.critical_path.back().end_s - rep.critical_path.front().start_s;
        rep.critical_coverage =
            horizon > 0.0 ? rep.critical_path_s / horizon : 0.0;
    }
    return rep;
}

std::string BalanceReport::to_text() const {
    std::ostringstream os;
    os << "balance: horizon " << format_double(horizon_s, 3) << "s, "
       << pe_count << " PEs, imbalance " << format_double(imbalance_ratio, 3)
       << ", efficiency " << format_double(efficiency, 3)
       << ", ideal makespan " << format_double(ideal_makespan_s, 3) << "s\n";
    os << "critical path: " << format_double(critical_path_s, 3) << "s ("
       << pct(critical_path_s, horizon_s) << "% of horizon, "
       << critical_path.size() << " steps, gap tolerance "
       << format_double(gap_tolerance_s, 3) << "s)";
    if (!critical_path.empty()) {
        os << "  tail:";
        const std::size_t show = std::min<std::size_t>(6, critical_path.size());
        for (std::size_t i = critical_path.size() - show;
             i < critical_path.size(); ++i) {
            const CriticalStep& s = critical_path[i];
            os << ' ' << (i > critical_path.size() - show ? "-> " : "")
               << "pe" << s.pe << ":t" << s.task;
        }
    }
    os << '\n';
    if (straggler != kNoStraggler) {
        os << "straggler: " << pes[straggler].label << " (finishes +"
           << format_double(straggler_tail_s, 3) << "s after runner-up)\n";
    }
    TextTable table({"pe", "label", "busy_s", "busy%", "comm%", "idle%",
                     "gcups", "acc", "abort", "repl"});
    for (const BalancePe& pe : pes) {
        table.add_row({std::to_string(pe.pe), pe.label,
                       format_double(pe.busy_s, 3), pct(pe.busy_s, horizon_s),
                       pct(pe.comm_s, horizon_s), pct(pe.idle_s, horizon_s),
                       format_double(pe.cells_per_second / 1e9, 3),
                       std::to_string(pe.tasks_accepted),
                       std::to_string(pe.tasks_aborted),
                       std::to_string(pe.replicas_received)});
    }
    os << table.render();
    os << "events " << events_analyzed << "  dropped " << dropped_events
       << '\n';
    return os.str();
}

std::string BalanceReport::to_json() const {
    std::ostringstream os;
    auto num = [&](double v) {
        if (std::isfinite(v)) {
            std::ostringstream tmp;
            tmp.precision(12);
            tmp << v;
            os << tmp.str();
        } else {
            os << "null";
        }
    };
    os << "{\n  \"horizon_s\": ";
    num(horizon_s);
    os << ",\n  \"pe_count\": " << pe_count;
    os << ",\n  \"total_busy_s\": ";
    num(total_busy_s);
    os << ",\n  \"total_comm_s\": ";
    num(total_comm_s);
    os << ",\n  \"total_idle_s\": ";
    num(total_idle_s);
    os << ",\n  \"ideal_makespan_s\": ";
    num(ideal_makespan_s);
    os << ",\n  \"imbalance_ratio\": ";
    num(imbalance_ratio);
    os << ",\n  \"efficiency\": ";
    num(efficiency);
    os << ",\n  \"straggler\": ";
    if (straggler != kNoStraggler) {
        os << '"' << pes[straggler].label << '"';
    } else {
        os << "null";
    }
    os << ",\n  \"straggler_tail_s\": ";
    num(straggler_tail_s);
    os << ",\n  \"critical_path_s\": ";
    num(critical_path_s);
    os << ",\n  \"critical_coverage\": ";
    num(critical_coverage);
    os << ",\n  \"gap_tolerance_s\": ";
    num(gap_tolerance_s);
    os << ",\n  \"events_analyzed\": " << events_analyzed;
    os << ",\n  \"dropped_events\": " << dropped_events;
    os << ",\n  \"pes\": [";
    for (std::size_t i = 0; i < pes.size(); ++i) {
        const BalancePe& pe = pes[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"pe\": " << pe.pe << ", \"label\": \"" << pe.label
           << "\", \"busy_s\": ";
        num(pe.busy_s);
        os << ", \"comm_s\": ";
        num(pe.comm_s);
        os << ", \"idle_s\": ";
        num(pe.idle_s);
        os << ", \"cells\": ";
        num(pe.cells);
        os << ", \"cells_per_second\": ";
        num(pe.cells_per_second);
        os << ", \"tasks_accepted\": " << pe.tasks_accepted
           << ", \"tasks_aborted\": " << pe.tasks_aborted
           << ", \"replicas_received\": " << pe.replicas_received << '}';
    }
    os << "\n  ],\n  \"critical_path\": [";
    for (std::size_t i = 0; i < critical_path.size(); ++i) {
        const CriticalStep& s = critical_path[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"pe\": " << s.pe << ", \"lane\": " << s.lane
           << ", \"task\": ";
        if (s.task != kNoTask) {
            os << s.task;
        } else {
            os << "null";
        }
        os << ", \"start_s\": ";
        num(s.start_s);
        os << ", \"end_s\": ";
        num(s.end_s);
        os << ", \"wait_s\": ";
        num(s.wait_s);
        os << '}';
    }
    os << "\n  ]\n}\n";
    return os.str();
}

void require_audit_complete(const Trace& trace) {
    if (const std::uint64_t dropped = audited_dropped(trace); dropped > 0) {
        throw IoError("obs.trace.dropped " + std::to_string(dropped) +
                      ": the trace ring overflowed, so the report would "
                      "miss events");
    }
}

}  // namespace swh::obs
