#pragma once

// Shared ASCII Gantt renderer (paper Fig. 5). obs::render_trace_gantt
// draws every execution mode's chart through it from the trace's span
// lanes — a real run's TraceRecorder and a DES run's SimReport::trace
// alike — so a real run and its simulated counterpart are visually
// comparable; the live dashboard reuses it for rate bars.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace swh::obs {

/// One rendered bar: `glyph` selects the character (task id), `row` the
/// chart line. Aborted spans render as 'x'.
struct GanttSpan {
    std::size_t row = 0;
    std::uint64_t glyph = 0;
    double start = 0.0;
    double end = 0.0;
    bool aborted = false;
};

/// Renders one row per label; `time_step` is the width of one character
/// cell in `unit`s. The axis is time by default, but the renderer is
/// unit-agnostic — the live dashboard reuses it for per-PE rate bars
/// (unit "GCUPS", span = [0, rate]).
std::string render_gantt(std::span<const GanttSpan> spans,
                         std::span<const std::string> row_labels,
                         double time_step, const char* unit = "s");

}  // namespace swh::obs
