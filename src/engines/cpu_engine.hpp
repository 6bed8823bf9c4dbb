#pragma once

#include <vector>

#include "align/db_scan.hpp"
#include "engines/engine.hpp"

namespace swh::engines {

/// Exports one scan's counters, one metric name per fact: exact-stage
/// routes under `scan.dispatch.*`, the prefilter under
/// `engine.cpu.filter.*`, the settlements per kernel width under
/// `engine.cpu.runs8/16/32`. Shared by CpuEngine and bench_scan.
void export_scan_stats(const align::DatabaseScanner::Stats& stats,
                       obs::MetricsRegistry& metrics);

/// The paper's "adapted Farrar" SSE slave (SS IV-C): scans the packed
/// database arena (db::PackedDatabase) through align::DatabaseScanner's
/// three-stage funnel — an ungapped prefilter prunes subjects provably
/// outside the running top-k (EngineConfig::prefilter), the 8-bit exact
/// kernels settle the survivors, and the deferred overflow batch is
/// rescored at 16/32 bits. `threads` > 1 splits the database across
/// internal worker threads claiming DatabaseScanner::kDefaultChunk
/// subjects per atomic op
/// (a whole multicore presented as one PE); the paper's setup registers
/// each core as its own single-threaded slave. Each worker keeps one
/// align::ScanScratch for the engine's lifetime — kernel buffers,
/// inter-sequence column state, funnel lists — so a slave that runs
/// task after task scans warm; per task it builds only the query's
/// profiles (the striped ones on first use, see align::StripedAligner)
/// and its DatabaseScanner.
class CpuEngine final : public ComputeEngine {
public:
    CpuEngine(EngineConfig config, unsigned threads = 1);

    std::string_view name() const override { return "cpu-striped"; }
    core::PeKind kind() const override { return core::PeKind::SseCore; }

    core::TaskResult execute(const align::Sequence& query,
                             std::uint32_t query_index, core::TaskId task,
                             const db::Database& database,
                             ExecutionObserver* observer) override;

    const EngineConfig& config() const { return config_; }
    unsigned threads() const { return threads_; }

private:
    EngineConfig config_;
    unsigned threads_;
    /// One per worker (index = worker id), reused by every execute():
    /// scratch contents never reach a result (engine.hpp).
    std::vector<align::ScanScratch> scratch_;
};

}  // namespace swh::engines
