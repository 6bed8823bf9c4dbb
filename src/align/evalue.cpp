#include "align/evalue.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "align/alphabet.hpp"
#include "align/sw_scalar.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace swh::align {

namespace {

constexpr double kEulerMascheroni = 0.57721566490153286;

std::vector<Code> null_protein(Rng& rng, std::size_t len) {
    std::vector<Code> out;
    out.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
        out.push_back(static_cast<Code>(
            rng.weighted_index(kAaBackgroundFreq.data(),
                               kAaBackgroundFreq.size())));
    }
    return out;
}

}  // namespace

double GumbelParams::evalue(Score score, std::uint64_t m,
                            std::uint64_t n) const {
    return k * static_cast<double>(m) * static_cast<double>(n) *
           std::exp(-lambda * static_cast<double>(score));
}

double GumbelParams::bit_score(Score score) const {
    return (lambda * static_cast<double>(score) - std::log(k)) /
           std::numbers::ln2;
}

double GumbelParams::pvalue(Score score, std::uint64_t m,
                            std::uint64_t n) const {
    return -std::expm1(-evalue(score, m, n));
}

GumbelParams fit_gumbel(const ScoreMatrix& matrix, GapPenalty gap,
                        const GumbelFitOptions& options) {
    SWH_REQUIRE(options.samples >= 10, "need at least 10 null samples");
    SWH_REQUIRE(options.pair_len >= 20, "null sequences too short");
    SWH_REQUIRE(matrix.alphabet() == Alphabet::protein(),
                "empirical fit currently supports the protein alphabet");

    Rng rng(options.seed);
    RunningStats stats;
    for (std::size_t i = 0; i < options.samples; ++i) {
        const auto a = null_protein(rng, options.pair_len);
        const auto b = null_protein(rng, options.pair_len);
        stats.add(static_cast<double>(sw_score_affine(a, b, matrix, gap)));
    }

    // Method of moments for Gumbel(mu, beta):
    //   mean = mu + gamma_E * beta,  var = pi^2/6 * beta^2
    // and the Karlin-Altschul form gives mu = ln(K m n) / lambda,
    // beta = 1 / lambda.
    const double beta = std::sqrt(6.0 * stats.variance()) / std::numbers::pi;
    SWH_REQUIRE(beta > 0.0, "degenerate null score distribution");
    const double lambda = 1.0 / beta;
    const double mu = stats.mean() - kEulerMascheroni * beta;
    const double mn = static_cast<double>(options.pair_len) *
                      static_cast<double>(options.pair_len);
    GumbelParams params;
    params.lambda = lambda;
    params.k = std::exp(lambda * mu) / mn;
    params.fit_m = options.pair_len;
    params.fit_n = options.pair_len;
    return params;
}

}  // namespace swh::align
