#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "obs/metrics.hpp"
#include "runtime/hybrid_runtime.hpp"
#include "sim/simulator.hpp"

namespace swh::obs {
namespace {

// ---- Minimal JSON parser (round-trip check only) ------------------------
// Enough of RFC 8259 to load what export_chrome_json writes: objects,
// arrays, strings with the escapes json_escape emits, and numbers.

struct JsonValue {
    enum class Type { Null, Number, String, Array, Object };
    Type type = Type::Null;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue& at(const std::string& key) const {
        const auto it = object.find(key);
        if (it == object.end()) {
            throw std::runtime_error("missing key: " + key);
        }
        return it->second;
    }
    bool has(const std::string& key) const {
        return object.count(key) > 0;
    }
};

class JsonParser {
public:
    explicit JsonParser(std::string text) : s_(std::move(text)) {}

    JsonValue parse() {
        JsonValue v = value();
        skip_ws();
        if (i_ != s_.size()) throw std::runtime_error("trailing JSON");
        return v;
    }

private:
    void skip_ws() {
        while (i_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[i_]))) {
            ++i_;
        }
    }
    char peek() {
        skip_ws();
        if (i_ >= s_.size()) throw std::runtime_error("unexpected end");
        return s_[i_];
    }
    void expect(char c) {
        if (peek() != c) {
            throw std::runtime_error(std::string("expected '") + c +
                                     "' got '" + s_[i_] + "'");
        }
        ++i_;
    }

    JsonValue value() {
        const char c = peek();
        if (c == '{') return object();
        if (c == '[') return array();
        if (c == '"') return string_value();
        return number();
    }

    JsonValue object() {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::Object;
        if (peek() == '}') {
            ++i_;
            return v;
        }
        while (true) {
            JsonValue key = string_value();
            expect(':');
            v.object.emplace(key.str, value());
            if (peek() == ',') {
                ++i_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue array() {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::Array;
        if (peek() == ']') {
            ++i_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            if (peek() == ',') {
                ++i_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue string_value() {
        expect('"');
        JsonValue v;
        v.type = JsonValue::Type::String;
        while (i_ < s_.size() && s_[i_] != '"') {
            char c = s_[i_++];
            if (c == '\\') {
                if (i_ >= s_.size()) {
                    throw std::runtime_error("bad escape");
                }
                const char e = s_[i_++];
                switch (e) {
                    case 'n': c = '\n'; break;
                    case 't': c = '\t'; break;
                    case 'u':
                        c = static_cast<char>(
                            std::stoi(s_.substr(i_, 4), nullptr, 16));
                        i_ += 4;
                        break;
                    default: c = e;
                }
            }
            v.str.push_back(c);
        }
        expect('"');
        return v;
    }

    JsonValue number() {
        const std::size_t start = i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' ||
                s_[i_] == 'e' || s_[i_] == 'E')) {
            ++i_;
        }
        if (i_ == start) throw std::runtime_error("bad number");
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = std::stod(s_.substr(start, i_ - start));
        return v;
    }

    const std::string s_;
    std::size_t i_ = 0;
};

// ---- Fixtures ------------------------------------------------------------

const align::ScoreMatrix& blosum() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

/// Runs 8 queries against a small database on 4 concurrent CPU slaves
/// with tracing + metrics on; returns the drained trace and the report.
struct TracedRun {
    Trace trace;
    runtime::RunReport report;
    std::size_t n_queries = 0;
};

TracedRun traced_run() {
    db::DatabaseSpec spec;
    spec.name = "obs";
    spec.num_sequences = 30;
    spec.length.min_len = 20;
    spec.length.max_len = 80;
    spec.seed = 61;
    const db::Database database = db::Database::generate(spec);
    const auto queries = db::make_query_set(8, 30, 90, 63);

    engines::EngineConfig config;
    config.matrix = &blosum();
    config.gap = {10, 2};
    config.top_k = 3;
    config.isa = simd::best_supported();
    config.progress_grain = 100'000;

    TraceRecorder recorder;
    MetricsRegistry registry;
    config.metrics = &registry;

    runtime::RuntimeOptions options;
    options.notify_period_s = 0.01;
    options.top_k = 3;
    options.trace = &recorder;
    options.metrics = &registry;

    runtime::HybridRuntime rt(database, queries, options);
    std::vector<runtime::SlaveSpec> slaves;
    for (int i = 0; i < 4; ++i) {
        slaves.push_back(runtime::SlaveSpec{
            "sse" + std::to_string(i),
            std::make_unique<engines::CpuEngine>(config)});
    }
    TracedRun out;
    out.report = rt.run(std::move(slaves), core::make_pss());
    out.trace = recorder.drain();
    out.n_queries = queries.size();
    return out;
}

const TracedRun& shared_run() {
    static const TracedRun run = traced_run();
    return run;
}

const TraceLaneData* find_lane(const Trace& trace, const std::string& label) {
    for (const TraceLaneData& lane : trace.lanes) {
        if (lane.label == label) return &lane;
    }
    return nullptr;
}

// ---- Tests ---------------------------------------------------------------

TEST(TraceRecorder, ConcurrentRunKeepsPerLaneOrderAndBalance) {
    const TracedRun& run = shared_run();
    ASSERT_FALSE(run.trace.lanes.empty());

    std::size_t task_spans = 0;
    for (const TraceLaneData& lane : run.trace.lanes) {
        EXPECT_EQ(lane.dropped, 0u) << lane.label;
        // Strict per-lane ordering: one thread (or one lock) per lane.
        double prev = 0.0;
        std::size_t begins = 0;
        std::size_t ends = 0;
        std::vector<const char*> open;
        for (const TraceEvent& e : lane.events) {
            EXPECT_GE(e.t, prev) << "out-of-order event in " << lane.label;
            prev = e.t;
            if (e.kind == EventKind::SpanBegin) {
                ++begins;
                open.push_back(e.name);
            } else if (e.kind == EventKind::SpanEnd) {
                ++ends;
                // LIFO nesting: an end always closes the innermost span.
                ASSERT_FALSE(open.empty()) << lane.label;
                EXPECT_STREQ(e.name, open.back());
                open.pop_back();
                if (std::string(e.name) == "task") ++task_spans;
            }
        }
        EXPECT_EQ(begins, ends) << "unbalanced spans in " << lane.label;
        EXPECT_TRUE(open.empty());
    }
    // Every query ran as a task span on some slave at least once
    // (replicas can add more).
    EXPECT_GE(task_spans, run.n_queries);

    // Each of the 4 slaves has its own lane carrying task + kernel spans.
    for (int i = 0; i < 4; ++i) {
        const TraceLaneData* lane =
            find_lane(run.trace, "sse" + std::to_string(i));
        ASSERT_NE(lane, nullptr);
    }
}

TEST(TraceRecorder, MasterLaneCarriesTaskLifecycle) {
    const TracedRun& run = shared_run();
    const TraceLaneData* master = find_lane(run.trace, "master");
    ASSERT_NE(master, nullptr);

    std::set<core::TaskId> assigned;
    std::size_t accepted = 0;
    std::size_t registered = 0;
    for (const TraceEvent& e : master->events) {
        if (e.kind == EventKind::TaskAssigned ||
            e.kind == EventKind::ReplicaIssued) {
            assigned.insert(e.task);
        }
        if (e.kind == EventKind::CompletedAccepted) ++accepted;
        if (e.kind == EventKind::SlaveRegistered) ++registered;
    }
    EXPECT_EQ(assigned.size(), run.n_queries);  // every task assigned
    EXPECT_EQ(accepted, run.n_queries);         // exactly one winner each
    EXPECT_EQ(registered, 4u);
}

TEST(TraceRecorder, RunReportCarriesMetricsSnapshot) {
    const TracedRun& run = shared_run();
    const MetricsSnapshot& m = run.report.metrics;
    ASSERT_FALSE(m.empty());

    // At least one non-empty package was handed out (how the 8 tasks
    // split across the 4 slaves is timing-dependent).
    EXPECT_GE(m.counter("sched.packages"), 1u);
    const HistogramSummary* dur = m.histogram("task.duration_s.sse");
    ASSERT_NE(dur, nullptr);
    // One duration sample per executed task span (accepted + discarded
    // + cancelled all ran through a slave).
    EXPECT_GE(dur->count, run.n_queries);
    EXPECT_GT(dur->mean, 0.0);
    EXPECT_LE(dur->min, dur->p50);
    EXPECT_LE(dur->p50, dur->max);

    ASSERT_NE(m.histogram("channel.master_inbox.depth"), nullptr);
    EXPECT_GT(m.counter("engine.cpu.runs8") + m.counter("engine.cpu.runs16") +
                  m.counter("engine.cpu.runs32"),
              0u);

    // Satellite: per-kind cell accounting adds up to the run totals.
    std::uint64_t kind_accepted = 0;
    for (const runtime::KindCells& kc : run.report.cells_by_kind()) {
        kind_accepted += kc.cells_accepted;
    }
    EXPECT_EQ(kind_accepted, run.report.accepted_cells);

    // to_json parses back and contains the counters section.
    JsonParser parser(m.to_json());
    const JsonValue parsed = parser.parse();
    EXPECT_TRUE(parsed.has("counters"));
    EXPECT_TRUE(parsed.has("histograms"));
}

TEST(TraceExport, ChromeJsonRoundTrips) {
    const TracedRun& run = shared_run();
    const std::string json = chrome_json(run.trace);

    JsonParser parser(json);
    const JsonValue root = parser.parse();
    const JsonValue& events = root.at("traceEvents");
    ASSERT_EQ(events.type, JsonValue::Type::Array);

    // Metadata: one thread_name record per lane, names matching.
    std::map<double, std::string> tid_names;
    std::size_t begins = 0;
    std::size_t ends = 0;
    std::size_t instants = 0;
    for (const JsonValue& e : events.array) {
        const std::string ph = e.at("ph").str;
        if (ph == "M") {
            EXPECT_EQ(e.at("name").str, "thread_name");
            tid_names[e.at("tid").number] =
                e.at("args").at("name").str;
            continue;
        }
        EXPECT_TRUE(e.has("ts"));
        EXPECT_EQ(e.at("pid").number, 0.0);
        if (ph == "B") ++begins;
        if (ph == "E") ++ends;
        if (ph == "i") {
            ++instants;
            EXPECT_EQ(e.at("s").str, "t");  // thread-scoped instant
        }
    }
    ASSERT_EQ(tid_names.size(), run.trace.lanes.size());
    for (std::size_t i = 0; i < run.trace.lanes.size(); ++i) {
        EXPECT_EQ(tid_names[static_cast<double>(i)],
                  run.trace.lanes[i].label);
    }
    EXPECT_EQ(begins, ends);
    EXPECT_GE(begins, run.n_queries);  // at least the task spans
    EXPECT_GT(instants, 0u);           // progress/lifecycle marks

    // Total: metadata + one record per captured event.
    EXPECT_EQ(events.array.size(),
              run.trace.lanes.size() + run.trace.total_events());
}

TEST(TraceExport, CsvHasHeaderAndOneRowPerEvent) {
    const TracedRun& run = shared_run();
    std::ostringstream os;
    export_csv(run.trace, os);
    const std::string csv = os.str();

    std::istringstream in(csv);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "lane,label,t_seconds,kind,pe,task,value,name");
    std::size_t rows = 0;
    bool footer_seen = false;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        // The `# dropped_events,N` footer is a comment, not a row.
        if (line.front() == '#') {
            footer_seen = true;
            continue;
        }
        ++rows;
    }
    EXPECT_EQ(rows, run.trace.total_events());
    EXPECT_TRUE(footer_seen);
}

TEST(TraceExport, GanttRendersOneRowPerSpanLane) {
    // A 2-PE DES run (both PEs run tasks, in virtual time) plus a
    // channel lane that carries only depth samples.
    sim::SimConfig cfg;
    cfg.policy = core::make_self_scheduling;
    cfg.db_residues = 1'000'000;
    cfg.query_lengths.assign(4, 1'000);
    for (const char* label : {"A", "B"}) {
        sim::PeModelSpec pe;
        pe.label = label;
        cfg.pes.push_back(pe);
    }
    Trace trace = sim::simulate(cfg).trace;
    TraceLaneData chan;
    chan.label = "chan:A";
    chan.events.push_back(TraceEvent{0.0, EventKind::ChannelSend, 0, kNoTask,
                                     1.0, nullptr});
    chan.events.push_back(TraceEvent{0.1, EventKind::ChannelRecv, 0, kNoTask,
                                     0.0, nullptr});
    trace.lanes.push_back(std::move(chan));

    const std::string gantt = render_trace_gantt(trace, /*time_step=*/0.1);
    // Every lane that carries a span gets a row; channel lanes carry no
    // spans and get no rows.
    std::size_t span_lanes = 0;
    for (const TraceLaneData& lane : trace.lanes) {
        const bool spans = std::any_of(
            lane.events.begin(), lane.events.end(), [](const TraceEvent& e) {
                return e.kind == EventKind::SpanBegin;
            });
        if (!spans) continue;
        ++span_lanes;
        EXPECT_NE(gantt.find(lane.label), std::string::npos) << lane.label;
    }
    EXPECT_GE(span_lanes, 2u);
    EXPECT_EQ(gantt.find("chan:"), std::string::npos);
}

TEST(TraceExport, LaneSpansPairByNestingAndCloseOpenBeginsAborted) {
    // task 1 [0, 4] holds kernel span [1, 2] (aborted); task 3 begins
    // at 5 and a kernel span inside it at 6, and the lane stops at 7.
    TraceLaneData lane;
    lane.label = "SSE1";
    const auto add = [&](double t, EventKind kind, core::TaskId task,
                         double value = 0.0) {
        lane.events.push_back(TraceEvent{t, kind, 2, task, value, "x"});
    };
    add(0.0, EventKind::SpanBegin, 1);
    add(1.0, EventKind::SpanBegin, 1);
    add(2.0, EventKind::SpanEnd, 1, 1.0);
    add(4.0, EventKind::SpanEnd, 1);
    add(5.0, EventKind::SpanBegin, 3);
    add(6.0, EventKind::SpanBegin, 3);
    add(7.0, EventKind::Progress, kNoTask);

    const std::vector<LaneSpan> spans = lane_spans(lane);
    ASSERT_EQ(spans.size(), 4u);
    const auto expect = [&](std::size_t i, core::TaskId task, double start,
                            double end, bool aborted, std::size_t depth) {
        SCOPED_TRACE(testing::Message() << "span " << i);
        EXPECT_EQ(spans[i].pe, 2u);
        EXPECT_EQ(spans[i].task, task);
        EXPECT_EQ(spans[i].start, start);
        EXPECT_EQ(spans[i].end, end);
        EXPECT_EQ(spans[i].aborted, aborted);
        EXPECT_EQ(spans[i].depth, depth);
    };
    // Closed spans in the order they end, then the open ones, outermost
    // first, closed at the lane's last timestamp.
    expect(0, 1, 1.0, 2.0, true, 1);
    expect(1, 1, 0.0, 4.0, false, 0);
    expect(2, 3, 5.0, 7.0, true, 0);
    expect(3, 3, 6.0, 7.0, true, 1);
}

TEST(TraceRecorder, DisabledRecorderCapturesNothing) {
    TraceRecorder recorder(TraceRecorder::kDefaultLaneCapacity,
                           /*enabled=*/false);
    TraceLane& lane = recorder.lane("idle");
    for (int i = 0; i < 100; ++i) {
        lane.emit(EventKind::Progress, 0, kNoTask, 1.0);
        lane.span_begin("task", 1);
        lane.span_end("task", 1);
    }
    const Trace trace = recorder.drain();
    ASSERT_EQ(trace.lanes.size(), 1u);
    EXPECT_TRUE(trace.lanes[0].events.empty());
    EXPECT_EQ(trace.lanes[0].dropped, 0u);
}

TEST(TraceRecorder, FullLaneDropsOldestAndCounts) {
    TraceRecorder recorder(/*lane_capacity=*/4);
    TraceLane& lane = recorder.lane("tiny");
    for (std::uint32_t i = 0; i < 10; ++i) {
        lane.emit(EventKind::Progress, i);
    }
    EXPECT_EQ(lane.dropped(), 6u);
    const Trace trace = recorder.drain();
    ASSERT_EQ(trace.lanes[0].events.size(), 4u);
    // Oldest dropped: the survivors are the most recent four emits.
    EXPECT_EQ(trace.lanes[0].events.front().pe, 6u);
    EXPECT_EQ(trace.lanes[0].events.back().pe, 9u);
}

TEST(TraceRecorder, HandcraftedTraceExportsLikeACapturedOne) {
    // The simulator/bench path: build a Trace by hand on virtual time.
    Trace trace;
    TraceLaneData lane;
    lane.label = "GPU1";
    lane.events.push_back(
        TraceEvent{0.0, EventKind::SpanBegin, 0, 7, 0.0, "task"});
    lane.events.push_back(
        TraceEvent{2.0, EventKind::SpanEnd, 0, 7, 0.0, "task"});
    trace.lanes.push_back(std::move(lane));

    JsonParser parser(chrome_json(trace));
    const JsonValue root = parser.parse();
    EXPECT_EQ(root.at("traceEvents").array.size(), 3u);  // M + B + E

    const std::string gantt = render_trace_gantt(trace, 1.0);
    EXPECT_NE(gantt.find("GPU1"), std::string::npos);
    EXPECT_NE(gantt.find("77"), std::string::npos);  // task 7, two columns
}

}  // namespace
}  // namespace swh::obs
