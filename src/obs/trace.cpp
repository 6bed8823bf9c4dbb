#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/gantt.hpp"

namespace swh::obs {

const char* to_string(EventKind kind) {
    switch (kind) {
        case EventKind::SlaveRegistered: return "slave_registered";
        case EventKind::SlaveDeregistered: return "slave_deregistered";
        case EventKind::PackageSized: return "package_sized";
        case EventKind::TaskAssigned: return "task_assigned";
        case EventKind::ReplicaIssued: return "replica_issued";
        case EventKind::Progress: return "progress";
        case EventKind::CompletedAccepted: return "completed_accepted";
        case EventKind::CompletedDiscarded: return "completed_discarded";
        case EventKind::TaskFailed: return "task_failed";
        case EventKind::SlavePresumedDead: return "slave_presumed_dead";
        case EventKind::ChannelSend: return "channel_send";
        case EventKind::ChannelRecv: return "channel_recv";
        case EventKind::SpanBegin: return "span_begin";
        case EventKind::SpanEnd: return "span_end";
    }
    return "unknown";
}

Trace TraceRecorder::drain() const {
    const swh::LockGuard lock(mu_);
    Trace out;
    out.lanes.reserve(lanes_.size());
    for (const auto& lane : lanes_) {
        TraceLaneData data;
        data.label = lane->label_;
        data.events = lane->ring_.to_vector();
        data.dropped = lane->dropped_;
        out.lanes.push_back(std::move(data));
    }
    return out;
}

std::string channel_lane_label(std::string_view peer) {
    return "chan:" + std::string(peer);
}

bool is_channel_lane(std::string_view label) {
    return label.starts_with("chan:");
}

std::uint64_t TraceRecorder::dropped_total() const {
    const swh::LockGuard lock(mu_);
    std::uint64_t n = 0;
    for (const auto& lane : lanes_) n += lane->dropped_;
    return n;
}

namespace {

void json_escape(std::ostream& os, const char* s) {
    os << '"';
    for (; *s != '\0'; ++s) {
        const char c = *s;
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    os << buf;
                } else {
                    os << c;
                }
        }
    }
    os << '"';
}

void json_escape(std::ostream& os, const std::string& s) {
    json_escape(os, s.c_str());
}

/// Microsecond timestamp, the unit the trace-event format mandates.
long long us(double t_seconds) {
    return static_cast<long long>(t_seconds * 1e6);
}

void write_common(std::ostream& os, const char* ph, double t,
                  std::size_t tid) {
    os << "\"ph\":\"" << ph << "\",\"ts\":" << us(t)
       << ",\"pid\":0,\"tid\":" << tid;
}

void write_args(std::ostream& os, const TraceEvent& e) {
    os << ",\"args\":{";
    bool first = true;
    auto field = [&](const char* key, auto value) {
        if (!first) os << ',';
        first = false;
        os << '"' << key << "\":" << value;
    };
    if (e.pe != core::kInvalidPe) field("pe", e.pe);
    if (e.task != kNoTask) field("task", e.task);
    field("value", e.value);
    if (e.kind == EventKind::Progress && e.aux > 0.0) {
        field("estimate", e.aux);
    }
    os << '}';
}

}  // namespace

void export_chrome_json(const Trace& trace, std::ostream& os) {
    os << "{\"traceEvents\":[";
    bool first = true;
    auto begin_event = [&] {
        if (!first) os << ',';
        first = false;
        os << "\n{";
    };

    for (std::size_t tid = 0; tid < trace.lanes.size(); ++tid) {
        begin_event();
        os << "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
           << tid << ",\"args\":{\"name\":";
        json_escape(os, trace.lanes[tid].label);
        os << "}}";
    }

    for (std::size_t tid = 0; tid < trace.lanes.size(); ++tid) {
        const TraceLaneData& lane = trace.lanes[tid];
        for (const TraceEvent& e : lane.events) {
            begin_event();
            os << "\"name\":";
            json_escape(os, e.name != nullptr ? e.name : to_string(e.kind));
            os << ',';
            switch (e.kind) {
                case EventKind::SpanBegin:
                    os << "\"cat\":\"span\",";
                    write_common(os, "B", e.t, tid);
                    write_args(os, e);
                    break;
                case EventKind::SpanEnd:
                    os << "\"cat\":\"span\",";
                    write_common(os, "E", e.t, tid);
                    write_args(os, e);
                    break;
                case EventKind::ChannelSend:
                case EventKind::ChannelRecv:
                    // Counter track: Perfetto plots queue depth over time.
                    os << "\"cat\":\"channel\",";
                    write_common(os, "C", e.t, tid);
                    os << ",\"args\":{\"depth\":" << e.value << '}';
                    break;
                default:
                    os << "\"cat\":\"sched\",";
                    write_common(os, "i", e.t, tid);
                    os << ",\"s\":\"t\"";
                    write_args(os, e);
            }
            os << '}';
        }
    }
    // Truncation must be visible in the artifact itself: a trace whose
    // rings overflowed is otherwise indistinguishable from a short run.
    os << "\n],\"otherData\":{\"dropped_events\":\"" << trace.total_dropped()
       << "\"}}\n";
}

std::string chrome_json(const Trace& trace) {
    std::ostringstream os;
    export_chrome_json(trace, os);
    return os.str();
}

void export_csv(const Trace& trace, std::ostream& os) {
    os << "lane,label,t_seconds,kind,pe,task,value,name\n";
    for (std::size_t tid = 0; tid < trace.lanes.size(); ++tid) {
        const TraceLaneData& lane = trace.lanes[tid];
        for (const TraceEvent& e : lane.events) {
            os << tid << ',' << lane.label << ',' << e.t << ','
               << to_string(e.kind) << ',';
            if (e.pe != core::kInvalidPe) os << e.pe;
            os << ',';
            if (e.task != kNoTask) os << e.task;
            os << ',' << e.value << ','
               << (e.name != nullptr ? e.name : "") << '\n';
        }
    }
    // Footer comment (ignored by CSV readers that strip '#' lines) so a
    // truncated export carries its own health record.
    os << "# dropped_events," << trace.total_dropped() << '\n';
}

std::vector<LaneSpan> lane_spans(const TraceLaneData& lane) {
    std::vector<LaneSpan> out;
    std::vector<const TraceEvent*> open;
    double last_t = 0.0;
    for (const TraceEvent& e : lane.events) {
        last_t = std::max(last_t, e.t);
        if (e.kind == EventKind::SpanBegin) {
            open.push_back(&e);
        } else if (e.kind == EventKind::SpanEnd && !open.empty()) {
            const TraceEvent* b = open.back();
            open.pop_back();
            out.push_back(LaneSpan{b->pe != core::kInvalidPe ? b->pe : e.pe,
                                   b->task, b->t, e.t, e.value != 0.0,
                                   open.size()});
        }
    }
    for (std::size_t depth = 0; depth < open.size(); ++depth) {
        const TraceEvent* b = open[depth];
        out.push_back(LaneSpan{b->pe, b->task, b->t, last_t, true, depth});
    }
    return out;
}

std::string render_trace_gantt(const Trace& trace, double time_step) {
    std::string header;
    if (const std::uint64_t dropped = trace.total_dropped(); dropped > 0) {
        header = "!! trace dropped " + std::to_string(dropped) +
                 " event(s) (ring overflow) — chart may be truncated\n";
    }
    std::vector<GanttSpan> spans;
    std::vector<std::string> labels;
    for (const TraceLaneData& lane : trace.lanes) {
        const std::vector<LaneSpan> mine = lane_spans(lane);
        if (mine.empty()) continue;  // lane has no spans: no chart row
        const std::size_t row = labels.size();
        labels.push_back(lane.label);
        for (const LaneSpan& s : mine) {
            spans.push_back(GanttSpan{row, s.task, s.start, s.end, s.aborted});
        }
    }
    return header + render_gantt(spans, labels, time_step);
}

}  // namespace swh::obs
