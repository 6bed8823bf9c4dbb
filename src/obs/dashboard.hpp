#pragma once

// Live ASCII balance dashboard: one refresh-in-place frame rendered
// from a MetricsSnapshot (typically delivered by a PeriodicSampler
// while the run is still going). The per-PE rate bars go through the
// same obs::render_gantt renderer as the Fig.-5 charts — a bar is just
// a span [0, rate] on a GCUPS axis — so the watch view and the
// post-run Gantt share one visual language.
//
// Data sources, all optional (missing metrics render as absent lines):
//   sched.pe.<id>.rate_cps     gauge   — latest realised rate per PE
//   sched.pe.<id>.accepted     counter — accepted completions per PE
//   sched.replicas_issued, sched.completions_accepted/discarded
//   engine.cpu.filter.tau      gauge   — current funnel threshold τ
//   engine.cpu.filter.pruned vs scan.dispatch.subjects_* — share of
//                              subjects the funnel pruned
//   channel.master_inbox.depth histogram — master queue depth

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace swh::obs {

struct DashboardOptions {
    /// Row labels indexed by PeId; unknown PEs render as "pe<N>".
    std::vector<std::string> pe_labels;
    /// Seconds since the run/sampler started (frame header).
    double elapsed_s = 0.0;
    /// Full scale of the rate bars; <= 0 ⇒ auto (max current rate).
    double full_scale_gcups = 0.0;
    /// Bar width in character cells.
    std::size_t bar_columns = 40;
};

/// Renders one frame (plain text, trailing newline). The caller owns
/// cursor control; prepending "\x1b[H\x1b[J" redraws in place.
std::string render_dashboard(const MetricsSnapshot& snapshot,
                             const DashboardOptions& options = {});

}  // namespace swh::obs
