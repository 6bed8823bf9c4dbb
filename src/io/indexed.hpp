#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "align/sequence.hpp"

namespace swh::io {

/// The paper's indexed sequence-file format (SS IV-B): a sidecar index for
/// a flat FASTA file recording the total number of sequences, the length
/// of the longest one, and the byte offset of each record's '>' header.
/// With it, any query subset can be retrieved without scanning the flat
/// file from the start. The indexed file's size and modification time
/// tell a sidecar written for another version of the file.
struct SequenceIndex {
    std::uint64_t sequence_count = 0;
    std::uint64_t max_sequence_length = 0;
    std::uint64_t total_residues = 0;
    /// Bytes indexed: every offset lies below it.
    std::uint64_t source_size = 0;
    /// The indexed file's modification time in nanoseconds since the
    /// file clock's epoch, taken before it was read; 0 for a stream.
    std::int64_t source_mtime_ns = 0;
    std::vector<std::uint64_t> offsets;       ///< byte offset of each '>'
    std::vector<std::uint64_t> lengths;       ///< residues per sequence

    bool empty() const { return sequence_count == 0; }
};

/// Scans a FASTA stream once, with read_fasta's scanner, and builds the
/// index: each offset is the byte of a header's '>', each length the
/// residues read_fasta parses for that record. Throws as read_fasta does.
SequenceIndex build_index(std::istream& fasta);

SequenceIndex build_index_file(const std::string& fasta_path);

/// Binary serialisation (little-endian, magic "SWHIDX2\n"): the magic,
/// sequence_count, max_sequence_length, total_residues, source_size,
/// source_mtime_ns, then the offsets and the lengths. load_index throws
/// ParseError on any other magic, a short stream, or fields that
/// disagree with each other.
void save_index(const SequenceIndex& index, std::ostream& out);
void save_index_file(const SequenceIndex& index, const std::string& path);
SequenceIndex load_index(std::istream& in);
SequenceIndex load_index_file(const std::string& path);

/// Conventional sidecar path: "<fasta>.swhidx".
std::string index_path_for(const std::string& fasta_path);

/// Random-access reader over a FASTA file + its index. slice(b, c) reads
/// records [b, b+c) in one positioned read of the file, from record b's
/// header to record b+c's (or to EOF) — the constant-time retrieval the
/// paper's master needs when handing query subsets to slaves.
class IndexedFastaReader {
public:
    /// Loads the sidecar index, or builds and saves it when it is
    /// missing, unreadable, or records another size or modification
    /// time than the FASTA file has now.
    IndexedFastaReader(std::string fasta_path,
                       const align::Alphabet& alphabet);

    std::size_t size() const {
        return static_cast<std::size_t>(index_.sequence_count);
    }

    const SequenceIndex& index() const { return index_; }

    /// Reads record i (0-based): slice(i, 1). Throws on out-of-range.
    align::Sequence get(std::size_t i) const;

    /// Reads records [begin, begin+count), parsed as read_fasta parses
    /// them. The sidecar is untrusted: throws ParseError unless each
    /// header sits at its indexed offset, exactly `count` records parse
    /// and each has its indexed length. Records appended to the file
    /// after the last indexed one are not read.
    std::vector<align::Sequence> slice(std::size_t begin,
                                       std::size_t count) const;

private:
    std::string path_;
    const align::Alphabet* alphabet_;
    SequenceIndex index_;
};

}  // namespace swh::io
