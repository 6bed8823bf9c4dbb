#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace swh::align {

/// A residue code: index into an Alphabet's symbol set.
using Code = std::uint8_t;

/// Maps residue characters (amino acids / nucleotide bases) to dense
/// codes 0..size()-1 and back. Unknown characters map to the alphabet's
/// wildcard symbol ('X' for protein, 'N' for nucleic acids), mirroring
/// how database-search tools treat ambiguity codes.
class Alphabet {
public:
    /// 24-letter protein alphabet in NCBI matrix order:
    /// ARNDCQEGHILKMFPSTWYVBZX* (B/Z ambiguity, X wildcard, * stop).
    static const Alphabet& protein();

    /// ACGTN (T also accepts U on encode, so RNA input works).
    static const Alphabet& dna();

    /// ACGUN.
    static const Alphabet& rna();

    std::size_t size() const { return symbols_.size(); }

    std::string_view symbols() const { return symbols_; }

    const std::string& name() const { return name_; }

    Code wildcard() const { return wildcard_; }

    /// Case-insensitive; unmapped characters become the wildcard.
    Code encode(char c) const { return enc_[static_cast<unsigned char>(c)]; }

    char decode(Code code) const;

    std::vector<Code> encode(std::string_view s) const;

    std::string decode(const std::vector<Code>& codes) const;

    /// True if `c` maps to a real symbol (not via the wildcard fallback).
    bool contains(char c) const;

    bool operator==(const Alphabet& other) const {
        return symbols_ == other.symbols_;
    }

private:
    Alphabet(std::string name, std::string symbols, char wildcard_char,
             std::string_view aliases = {});

    std::string name_;
    std::string symbols_;
    Code wildcard_;
    std::array<Code, 256> enc_{};
    std::array<bool, 256> known_{};
};

/// Robinson & Robinson (1991) amino-acid background frequencies of the
/// protein alphabet's 20 standard residues, in its symbol order
/// ARNDCQEGHILKMFPSTWYV (B/Z/X/* get 0): the null model of both the
/// E-value fit and the synthetic database generator.
inline constexpr std::array<double, 20> kAaBackgroundFreq = {
    0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295,
    0.07377, 0.02199, 0.05142, 0.09019, 0.05744, 0.02243, 0.03856,
    0.05203, 0.07120, 0.05841, 0.01330, 0.03216, 0.06441};

}  // namespace swh::align
