#pragma once

// Shared setup for the reproduction benches: the paper's workload (40
// queries, 100..5000 aa), its five Table II databases, and the
// calibrated platform models (see DESIGN.md for the calibration).

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "db/presets.hpp"
#include "engines/device_model.hpp"
#include "sim/platform.hpp"
#include "sim/simulator.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace swh::bench {

/// The paper's query workload as lengths only (the DES never touches
/// residues): 40 queries, 100..5000 aa, linearly spaced.
inline std::vector<std::size_t> paper_query_lengths() {
    std::vector<std::size_t> lengths;
    const auto queries = db::make_query_set();
    lengths.reserve(queries.size());
    for (const auto& q : queries) lengths.push_back(q.size());
    return lengths;
}

/// Platform of `gpus` GPUs + `sses` SSE cores, using the calibrated
/// device models. GPUs are listed first, matching the paper's setup
/// where CUDASW++ slaves registered before the Farrar ones.
inline std::vector<sim::PeModelSpec> hybrid_platform(int gpus, int sses) {
    std::vector<sim::PeModelSpec> pes;
    for (int g = 0; g < gpus; ++g) {
        pes.push_back(sim::gpu_pe("GPU" + std::to_string(g + 1)));
    }
    for (int s = 0; s < sses; ++s) {
        pes.push_back(sim::sse_core_pe("SSE" + std::to_string(s + 1)));
    }
    return pes;
}

/// A paper experiment: the 40-query workload against one Table II
/// database on a hybrid platform, PSS + workload adjustment, tasks
/// handed out in query-file order (the paper's configuration, SS V).
inline sim::SimConfig paper_config(const db::DatabasePreset& preset,
                                   int gpus, int sses,
                                   bool workload_adjust = true) {
    sim::SimConfig cfg;
    cfg.sched.workload_adjust = workload_adjust;
    cfg.sched.ready_order = core::ReadyOrder::FifoById;
    cfg.policy = core::make_pss;
    cfg.notify_period_s = 0.5;
    cfg.db_residues = preset.total_residues();
    cfg.query_lengths = paper_query_lengths();
    cfg.pes = hybrid_platform(gpus, sses);
    return cfg;
}

/// Task executions of the run: every task a PE started, whether its
/// result was accepted, discarded as a losing replica's, or aborted.
inline std::size_t executions(const sim::SimReport& r) {
    std::size_t n = 0;
    for (const sim::PeReport& pe : r.pes) {
        n += pe.results_accepted + pe.results_discarded + pe.tasks_aborted;
    }
    return n;
}

/// "123.4 / 5.67" cell style the paper's tables use (time / GCUPS).
inline std::string time_gcups_cell(const sim::SimReport& r) {
    return format_double(r.makespan, 1) + " / " + format_double(r.gcups, 2);
}

}  // namespace swh::bench
