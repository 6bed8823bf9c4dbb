// google-benchmark microbenchmarks for the Smith-Waterman kernels on
// THIS machine: scalar Gotoh oracle vs the striped 8-bit and 16-bit
// kernels at every compiled ISA level, and the inter-sequence scan
// kernels (stage-1 filter, u8 exact pass, i16 drain) on one cohort of
// random subjects, and the i16 drain on a homolog family.
// The `GCUPS` counter is the figure of merit of the striped kernels
// (the paper reports ~2-3 GCUPS per SSE core with the adapted Farrar
// kernel); `step` (seconds per query-row x subject-column vector step)
// that of the inter-sequence ones, whose time is their vector-op count.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "align/db_scan.hpp"
#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "align/ungapped.hpp"
#include "db/generator.hpp"
#include "util/rng.hpp"

using namespace swh;

namespace {

const align::ScoreMatrix& blosum() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

constexpr align::GapPenalty kGap{10, 2};

std::vector<align::Code> fixed_subject() {
    static const std::vector<align::Code> subject = [] {
        Rng rng(404);
        return db::random_protein(rng, 20'000, "subject").residues;
    }();
    return subject;
}

std::vector<align::Code> fixed_query(std::size_t len) {
    Rng rng(405 + len);
    return db::random_protein(rng, len, "query").residues;
}

void report_gcups(benchmark::State& state, std::size_t qlen,
                  std::size_t dlen) {
    const double cells = static_cast<double>(qlen) *
                         static_cast<double>(dlen) *
                         static_cast<double>(state.iterations());
    state.counters["GCUPS"] = benchmark::Counter(
        cells / 1e9, benchmark::Counter::kIsRate);
}

void BM_ScalarGotoh(benchmark::State& state) {
    const auto q = fixed_query(static_cast<std::size_t>(state.range(0)));
    const auto d = fixed_subject();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            align::sw_score_affine(q, d, blosum(), kGap));
    }
    report_gcups(state, q.size(), d.size());
}
BENCHMARK(BM_ScalarGotoh)->Arg(100)->Arg(500)->Arg(2000);

template <simd::IsaLevel kIsa>
void BM_StripedU8(benchmark::State& state) {
    if (!simd::is_supported(kIsa)) {
        state.SkipWithError("ISA not supported");
        return;
    }
    const auto q = fixed_query(static_cast<std::size_t>(state.range(0)));
    const auto d = fixed_subject();
    const align::Profile8 p =
        align::build_profile8(q, blosum(), align::lanes_u8(kIsa));
    for (auto _ : state) {
        benchmark::DoNotOptimize(align::sw_striped_u8(p, d, kGap, kIsa));
    }
    report_gcups(state, q.size(), d.size());
}
BENCHMARK(BM_StripedU8<simd::IsaLevel::Scalar>)->Arg(500);
BENCHMARK(BM_StripedU8<simd::IsaLevel::SSE2>)->Arg(100)->Arg(500)->Arg(2000)->Arg(5000);
BENCHMARK(BM_StripedU8<simd::IsaLevel::AVX2>)->Arg(100)->Arg(500)->Arg(2000)->Arg(5000);
BENCHMARK(BM_StripedU8<simd::IsaLevel::AVX512>)->Arg(500)->Arg(2000)->Arg(5000);

template <simd::IsaLevel kIsa>
void BM_StripedI16(benchmark::State& state) {
    if (!simd::is_supported(kIsa)) {
        state.SkipWithError("ISA not supported");
        return;
    }
    const auto q = fixed_query(static_cast<std::size_t>(state.range(0)));
    const auto d = fixed_subject();
    const align::Profile16 p =
        align::build_profile16(q, blosum(), align::lanes_i16(kIsa));
    for (auto _ : state) {
        benchmark::DoNotOptimize(align::sw_striped_i16(p, d, kGap, kIsa));
    }
    report_gcups(state, q.size(), d.size());
}
BENCHMARK(BM_StripedI16<simd::IsaLevel::SSE2>)->Arg(500)->Arg(2000);
BENCHMARK(BM_StripedI16<simd::IsaLevel::AVX2>)->Arg(500)->Arg(2000);
BENCHMARK(BM_StripedI16<simd::IsaLevel::AVX512>)->Arg(500)->Arg(2000);

/// One lane-interleaved cohort of random subjects (lengths 250..350)
/// for `lanes` lanes, plus its column count.
struct BenchCohort {
    std::vector<align::Code> cols;
    std::size_t columns = 0;
};

BenchCohort random_cohort(int lanes) {
    Rng rng(406);
    std::vector<std::vector<align::Code>> subjects;
    for (int l = 0; l < lanes; ++l) {
        subjects.push_back(
            db::random_protein(rng, 250 + rng.below(101), "s").residues);
    }
    BenchCohort c;
    for (const auto& s : subjects) c.columns = std::max(c.columns, s.size());
    c.cols.assign(c.columns * static_cast<std::size_t>(lanes),
                  align::InterseqProfile::kPadCode);
    for (std::size_t l = 0; l < subjects.size(); ++l) {
        for (std::size_t j = 0; j < subjects[l].size(); ++j) {
            c.cols[j * static_cast<std::size_t>(lanes) + l] = subjects[l][j];
        }
    }
    return c;
}

void report_step(benchmark::State& state, std::size_t rows,
                 std::size_t columns) {
    state.counters["step"] = benchmark::Counter(
        static_cast<double>(rows) * static_cast<double>(columns),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

/// The share of an i16 pass's tile columns its bound pruning skipped.
void report_skipped(benchmark::State& state, const align::I16Pass& pass) {
    state.counters["skipped"] = static_cast<double>(pass.columns_skipped) /
                                static_cast<double>(pass.columns);
}

enum class InterseqKernel { Filter, ExactU8, DrainI16 };

/// One call of an inter-sequence kernel on a full cohort of the ISA's
/// u8 width against a query of state.range(0) residues: the filter
/// sweeps one prefilter tile (kFilterTileRows rows), the u8 exact pass
/// and the i16 drain the whole query.
template <InterseqKernel kKernel, simd::IsaLevel kIsa>
void BM_Interseq(benchmark::State& state) {
    if (!simd::is_supported(kIsa)) {
        state.SkipWithError("ISA not supported");
        return;
    }
    const auto q = fixed_query(static_cast<std::size_t>(state.range(0)));
    const align::InterseqProfile prof =
        align::build_interseq_profile(q, blosum());
    const BenchCohort c = random_cohort(align::lanes_u8(kIsa));
    align::ScanScratch scratch;
    align::InterseqColumnState carry;
    std::uint8_t best8[64];
    std::int16_t best16[64];
    align::I16Pass pass;
    std::size_t rows = q.size();
    for (auto _ : state) {
        if constexpr (kKernel == InterseqKernel::Filter) {
            rows = std::min(q.size(), align::kFilterTileRows);
            benchmark::DoNotOptimize(align::sw_ungapped_interseq_u8(
                prof, c.cols.data(), c.columns, kGap, kIsa, scratch, best8,
                0, rows));
        } else if constexpr (kKernel == InterseqKernel::ExactU8) {
            benchmark::DoNotOptimize(align::sw_interseq_u8_tiled(
                prof, c.cols.data(), c.columns, kGap, kIsa, scratch, carry,
                best8));
        } else {
            pass = align::sw_interseq_i16_tiled(prof, c.cols.data(),
                                                c.columns, kGap, kIsa, scratch,
                                                carry, nullptr, best16);
            benchmark::DoNotOptimize(pass);
        }
    }
    report_step(state, rows, c.columns);
    if constexpr (kKernel == InterseqKernel::DrainI16) {
        report_skipped(state, pass);
    }
}
#define SWH_BENCH_INTERSEQ(isa)                                            \
    BENCHMARK(BM_Interseq<InterseqKernel::Filter, isa>)->Arg(512);         \
    BENCHMARK(BM_Interseq<InterseqKernel::ExactU8, isa>)->Arg(512);        \
    BENCHMARK(BM_Interseq<InterseqKernel::DrainI16, isa>)->Arg(512)->Arg(2000)
SWH_BENCH_INTERSEQ(simd::IsaLevel::SSE2);
SWH_BENCH_INTERSEQ(simd::IsaLevel::AVX2);
SWH_BENCH_INTERSEQ(simd::IsaLevel::AVX512);

/// The i16 drain as the scanner runs it on a homolog family: up to 10
/// mutants (15% substitutions, 2% indels each way; as many as one i16
/// vector holds) of a 2000-residue query, each lane's best seeded by its
/// banded score. `step` is per query-row x column vector step of the
/// full sweep, so it falls as the pass skips tile columns; `skipped` is
/// the share of tile columns skipped.
template <simd::IsaLevel kIsa>
void BM_DrainHomologs(benchmark::State& state) {
    if (!simd::is_supported(kIsa)) {
        state.SkipWithError("ISA not supported");
        return;
    }
    const auto q = fixed_query(2000);
    const align::InterseqProfile prof =
        align::build_interseq_profile(q, blosum());
    const auto lanes = static_cast<std::size_t>(align::lanes_u8(kIsa));
    const std::size_t members =
        std::min<std::size_t>(10, align::lanes_i16(kIsa));
    Rng rng(407);
    const db::MutationModel model{0.15, 0.02, 0.02};
    std::vector<std::vector<align::Code>> family;
    std::size_t columns = 0;
    std::int16_t seed[64] = {};
    for (std::size_t l = 0; l < members; ++l) {
        family.push_back(db::mutate(align::Sequence{"m", "", q},
                                    align::Alphabet::protein(), model, rng)
                             .residues);
        const auto& m = family.back();
        columns = std::max(columns, m.size());
        align::Score h[2 * align::DatabaseScanner::kDrainSeedBand + 1];
        align::Score f[2 * align::DatabaseScanner::kDrainSeedBand + 1];
        seed[l] = static_cast<std::int16_t>(std::min<align::Score>(
            align::sw_score_banded(q, m, blosum(), kGap,
                                   align::DatabaseScanner::kDrainSeedBand, h,
                                   f),
            32767));
    }
    std::vector<align::Code> cols(columns * lanes,
                                  align::InterseqProfile::kPadCode);
    for (std::size_t l = 0; l < members; ++l) {
        for (std::size_t j = 0; j < family[l].size(); ++j) {
            cols[j * lanes + l] = family[l][j];
        }
    }
    align::ScanScratch scratch;
    align::InterseqColumnState carry;
    std::int16_t best16[64];
    align::I16Pass pass;
    for (auto _ : state) {
        pass = align::sw_interseq_i16_tiled(prof, cols.data(), columns, kGap,
                                            kIsa, scratch, carry, seed,
                                            best16);
        benchmark::DoNotOptimize(pass);
    }
    report_step(state, q.size(), columns);
    report_skipped(state, pass);
}
BENCHMARK(BM_DrainHomologs<simd::IsaLevel::SSE2>);
BENCHMARK(BM_DrainHomologs<simd::IsaLevel::AVX2>);
BENCHMARK(BM_DrainHomologs<simd::IsaLevel::AVX512>);

// Full database-search path (StripedAligner with escalation) — what one
// paper SSE-core slave runs per task.
void BM_AlignerDatabaseScan(benchmark::State& state) {
    const auto q = fixed_query(static_cast<std::size_t>(state.range(0)));
    db::DatabaseSpec spec;
    spec.name = "bench";
    spec.num_sequences = 200;
    spec.seed = 42;
    const auto database = db::generate_database(spec);
    std::uint64_t db_residues = 0;
    for (const auto& s : database) db_residues += s.size();

    const align::StripedAligner aligner(q, blosum(), kGap);
    for (auto _ : state) {
        align::Score best = 0;
        for (const auto& s : database) {
            best = std::max(best, aligner.score(s.residues));
        }
        benchmark::DoNotOptimize(best);
    }
    const double cells = static_cast<double>(q.size()) *
                         static_cast<double>(db_residues) *
                         static_cast<double>(state.iterations());
    state.counters["GCUPS"] =
        benchmark::Counter(cells / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AlignerDatabaseScan)->Arg(100)->Arg(500)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
