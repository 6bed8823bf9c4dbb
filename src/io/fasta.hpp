#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "align/sequence.hpp"

namespace swh::io {

/// Reads every record of a FASTA stream. Header lines are '>' followed by
/// an id token and an optional description; sequence lines are folded.
/// Lines are trimmed of whitespace and blank lines are ignored; interior
/// whitespace in a sequence line is skipped. Other characters outside
/// the alphabet map to its wildcard (as tools like BLAST do). Throws
/// ParseError on sequence data before the first header and ContractError
/// on a header with no id.
std::vector<align::Sequence> read_fasta(std::istream& in,
                                        const align::Alphabet& alphabet);

std::vector<align::Sequence> read_fasta_file(const std::string& path,
                                             const align::Alphabet& alphabet);

/// Writes records with sequence lines folded at `width` characters.
void write_fasta(std::ostream& out,
                 const std::vector<align::Sequence>& seqs,
                 const align::Alphabet& alphabet, std::size_t width = 70);

void write_fasta_file(const std::string& path,
                      const std::vector<align::Sequence>& seqs,
                      const align::Alphabet& alphabet,
                      std::size_t width = 70);

}  // namespace swh::io
