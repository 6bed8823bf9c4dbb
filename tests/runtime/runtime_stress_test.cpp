// Protocol stress: many slaves, many tiny tasks, chatty policies —
// hammers the message layer (registration storms, NoWorkYet parking,
// replica races, end-of-run cancellations) far harder than the
// functional tests.

#include <gtest/gtest.h>

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
        return "s" + std::to_string(c.slaves) + "_q" +
               std::to_string(c.queries) + (c.cancel_tail ? "_can" : "") +
               (c.self_scheduling ? "_ss" : "_pss");
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
    for (std::size_t i = 0; i < c.slaves; ++i) {
        // Alternate fast and very slow slaves to provoke replica races.
        std::unique_ptr<engines::ComputeEngine> engine =
            std::make_unique<engines::CpuEngine>(tiny_config());
        if (i % 2 == 1) {
            engine = std::make_unique<engines::ThrottledEngine>(
                std::move(engine), c.cancel_tail ? 0.00005 : 0.0002);
        }
        slaves.push_back(
            SlaveSpec{"s" + std::to_string(i), std::move(engine)});
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
}

}  // namespace
}  // namespace swh::runtime
