// Protocol stress: many slaves, many tiny tasks, a 2 ms notification
// period, fast slaves next to throttled ones. Every case asserts exact
// top hits, one accepted result per query, per-slave discards that sum
// to the master's count, and at least one replica issued; the
// cancel_tail cases also assert that the end-of-run Shutdown cancelled
// a slow slave's task. Which discard branch a run takes is up to thread
// timing; master_protocol_test fires each one with scripted messages.

#include <gtest/gtest.h>

#include <latch>

#include "align/sw_scalar.hpp"
#include "db/database.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/throttled_engine.hpp"
#include "runtime/hybrid_runtime.hpp"

namespace swh::runtime {
namespace {

const align::ScoreMatrix& blosum() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

engines::EngineConfig tiny_config() {
    engines::EngineConfig c;
    c.matrix = &blosum();
    c.gap = {10, 2};
    c.top_k = 2;
    c.isa = simd::best_supported();
    c.progress_grain = 10'000;
    return c;
}

db::Database tiny_db(std::uint64_t seed) {
    db::DatabaseSpec spec;
    spec.name = "stress";
    spec.num_sequences = 8;
    spec.length.min_len = 15;
    spec.length.max_len = 40;
    spec.seed = seed;
    return db::Database::generate(spec);
}

/// Holds a fast slave's tasks until every slow slave has started one, so
/// each run has slow tasks to replicate and cancel however the threads
/// happen to be scheduled.
class GatedEngine final : public engines::ComputeEngine {
public:
    GatedEngine(std::unique_ptr<engines::ComputeEngine> inner,
                std::latch& slow_started, bool slow)
        : inner_(std::move(inner)), slow_started_(slow_started), slow_(slow) {}

    std::string_view name() const override { return inner_->name(); }
    core::PeKind kind() const override { return inner_->kind(); }

    core::TaskResult execute(const align::Sequence& query,
                             std::uint32_t query_index, core::TaskId task,
                             const db::Database& database,
                             engines::ExecutionObserver* observer) override {
        if (!slow_) {
            slow_started_.wait();
        } else if (!counted_) {
            counted_ = true;
            slow_started_.count_down();
        }
        return inner_->execute(query, query_index, task, database, observer);
    }

private:
    std::unique_ptr<engines::ComputeEngine> inner_;
    std::latch& slow_started_;
    const bool slow_;
    bool counted_ = false;
};

struct StressCase {
    std::size_t slaves;
    std::size_t queries;
    /// The slow slaves run 4x slower still, so their replicas are
    /// mid-task when the last result lands and the end-of-run Shutdown
    /// cancels them.
    bool cancel_tail;
    bool self_scheduling;
};

class RuntimeStressTest : public ::testing::TestWithParam<StressCase> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, RuntimeStressTest,
    ::testing::Values(StressCase{8, 40, false, true},
                      StressCase{8, 40, true, true},
                      StressCase{6, 30, false, false},
                      StressCase{6, 30, true, false},
                      StressCase{12, 24, true, true}),
    [](const auto& info) {
        const StressCase& c = info.param;
        return std::string("s")
            .append(std::to_string(c.slaves))
            .append("_q")
            .append(std::to_string(c.queries))
            .append(c.cancel_tail ? "_can" : "")
            .append(c.self_scheduling ? "_ss" : "_pss");
    });

TEST_P(RuntimeStressTest, CompletesWithExactResults) {
    const StressCase& c = GetParam();
    const db::Database database = tiny_db(1234);
    const auto queries = db::make_query_set(c.queries, 15, 50, 77);

    RuntimeOptions options;
    options.notify_period_s = 0.002;  // notification storm
    options.top_k = 2;
    options.sched.workload_adjust = true;
    HybridRuntime rt(database, queries, options);

    std::vector<SlaveSpec> slaves;
    std::latch slow_started(static_cast<std::ptrdiff_t>(c.slaves / 2));
    for (std::size_t i = 0; i < c.slaves; ++i) {
        // Alternate fast and very slow slaves to provoke replica races.
        const bool slow = i % 2 == 1;
        std::unique_ptr<engines::ComputeEngine> engine =
            std::make_unique<engines::CpuEngine>(tiny_config());
        if (slow) {
            engine = std::make_unique<engines::ThrottledEngine>(
                std::move(engine), c.cancel_tail ? 0.00005 : 0.0002);
        }
        slaves.push_back(SlaveSpec{
            std::string("s").append(std::to_string(i)),
            std::make_unique<GatedEngine>(std::move(engine), slow_started,
                                          slow)});
    }
    const RunReport report = rt.run(
        std::move(slaves), c.self_scheduling ? core::make_self_scheduling()
                                             : core::make_pss());

    // Exactness despite all the racing: every query's best hit matches
    // the serial oracle.
    for (std::size_t q = 0; q < queries.size(); ++q) {
        align::Score best = 0;
        for (std::size_t i = 0; i < database.size(); ++i) {
            best = std::max(best, align::sw_score_affine(
                                      queries[q].residues,
                                      database[i].residues, blosum(),
                                      {10, 2}));
        }
        ASSERT_FALSE(report.hits[q].empty()) << "query " << q;
        EXPECT_EQ(report.hits[q][0].score, best) << "query " << q;
    }
    // Conservation: accepted == one per query; discards match counters.
    std::size_t accepted = 0, discarded = 0;
    for (const SlaveReport& s : report.slaves) {
        accepted += s.results_accepted;
        discarded += s.results_discarded;
    }
    EXPECT_EQ(accepted, queries.size());
    EXPECT_EQ(discarded, report.completions_discarded);
    EXPECT_GT(report.replicas_issued, 0u);
    if (c.cancel_tail) {
        std::size_t slow_cancelled = 0;
        for (std::size_t i = 1; i < report.slaves.size(); i += 2) {
            slow_cancelled += report.slaves[i].tasks_cancelled;
        }
        EXPECT_GT(slow_cancelled, 0u);
    }
}

}  // namespace
}  // namespace swh::runtime
