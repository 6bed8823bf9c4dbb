#include "db/generator.hpp"

#include <algorithm>
#include <cmath>

#include "align/alphabet.hpp"
#include "util/error.hpp"

namespace swh::db {

using align::Alphabet;
using align::Code;
using align::Sequence;

namespace {

Code sample_amino_acid(Rng& rng) {
    return static_cast<Code>(rng.weighted_index(
        align::kAaBackgroundFreq.data(), align::kAaBackgroundFreq.size()));
}

}  // namespace

std::size_t LengthModel::sample(Rng& rng) const {
    SWH_REQUIRE(min_len > 0 && min_len <= max_len,
                "length model bounds invalid");
    const double x = std::exp(rng.normal(log_mean, log_stdev));
    const auto len = static_cast<std::size_t>(std::llround(x));
    return std::clamp(len, min_len, max_len);
}

double LengthModel::approx_mean() const {
    Rng rng(0xA11CE5EEDULL);
    constexpr int kSamples = 4096;
    double total = 0.0;
    for (int i = 0; i < kSamples; ++i)
        total += static_cast<double>(sample(rng));
    return total / kSamples;
}

align::Sequence random_protein(Rng& rng, std::size_t len, std::string id) {
    Sequence seq;
    seq.id = std::move(id);
    seq.residues.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
        seq.residues.push_back(sample_amino_acid(rng));
    return seq;
}

align::Sequence random_dna(Rng& rng, std::size_t len, std::string id) {
    Sequence seq;
    seq.id = std::move(id);
    seq.residues.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
        seq.residues.push_back(static_cast<Code>(rng.below(4)));
    return seq;
}

std::vector<Sequence> generate_database(const DatabaseSpec& spec) {
    std::vector<Sequence> out;
    out.reserve(spec.num_sequences);
    Rng master(spec.seed);
    for (std::size_t i = 0; i < spec.num_sequences; ++i) {
        Rng stream = master.split();
        const std::size_t len = spec.length.sample(stream);
        out.push_back(
            random_protein(stream, len,
                           spec.name + "_" + std::to_string(i)));
    }
    return out;
}

align::Sequence mutate(const Sequence& seq, const Alphabet& alphabet,
                       const MutationModel& model, Rng& rng) {
    SWH_REQUIRE(model.substitution_rate >= 0 && model.insertion_rate >= 0 &&
                    model.deletion_rate >= 0,
                "mutation rates must be non-negative");
    const bool protein = alphabet == Alphabet::protein();
    const std::uint64_t plain_symbols = protein ? 20 : 4;
    Sequence out;
    out.id = seq.id + "_mut";
    out.residues.reserve(seq.residues.size());
    for (const Code c : seq.residues) {
        if (rng.uniform() < model.deletion_rate) continue;
        if (rng.uniform() < model.insertion_rate) {
            out.residues.push_back(
                protein ? sample_amino_acid(rng)
                        : static_cast<Code>(rng.below(plain_symbols)));
        }
        if (rng.uniform() < model.substitution_rate) {
            Code repl = c;
            while (repl == c)
                repl = protein
                           ? sample_amino_acid(rng)
                           : static_cast<Code>(rng.below(plain_symbols));
            out.residues.push_back(repl);
        } else {
            out.residues.push_back(c);
        }
    }
    return out;
}

}  // namespace swh::db
