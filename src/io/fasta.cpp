#include "io/fasta.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>

#include "io/fasta_scan.hpp"
#include "util/error.hpp"

namespace swh::io {

using align::Alphabet;
using align::Sequence;

std::string read_file_bytes(const std::string& path, std::uint64_t begin,
                            std::uint64_t end) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open FASTA file: " + path);
    std::error_code ec;
    const std::uint64_t size = std::filesystem::file_size(path, ec);
    if (ec) {
        // Not a regular file (a pipe, say): no size to seek by, so read
        // it through and keep the range.
        std::string bytes = read_stream_bytes(in);
        if (begin >= bytes.size()) return {};
        return bytes.substr(static_cast<std::size_t>(begin),
                            static_cast<std::size_t>(std::min<std::uint64_t>(
                                end - begin, bytes.size() - begin)));
    }
    end = std::min(end, size);
    if (begin >= end) return {};
    std::string bytes(static_cast<std::size_t>(end - begin), '\0');
    in.seekg(static_cast<std::streamoff>(begin));
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    bytes.resize(static_cast<std::size_t>(in.gcount()));
    return bytes;
}

std::string read_stream_bytes(std::istream& in) {
    std::string bytes;
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
        bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
    }
    return bytes;
}

namespace {

std::vector<Sequence> parse_fasta(std::string_view text,
                                  const Alphabet& alphabet) {
    std::vector<Sequence> out;
    scan_fasta(
        text,
        [&out](const FastaHeader& h) {
            out.push_back(
                Sequence{std::string(h.id), std::string(h.description), {}});
            return true;
        },
        [&](std::string_view line) {
            append_residues(line, alphabet, out.back().residues);
        });
    return out;
}

}  // namespace

std::vector<Sequence> read_fasta(std::istream& in, const Alphabet& alphabet) {
    return parse_fasta(read_stream_bytes(in), alphabet);
}

std::vector<Sequence> read_fasta_file(const std::string& path,
                                      const Alphabet& alphabet) {
    return parse_fasta(read_file_bytes(path), alphabet);
}

void write_fasta(std::ostream& out, const std::vector<Sequence>& seqs,
                 const Alphabet& alphabet, std::size_t width) {
    SWH_REQUIRE(width > 0, "fold width must be positive");
    for (const Sequence& seq : seqs) {
        out << '>' << seq.id;
        if (!seq.description.empty()) out << ' ' << seq.description;
        out << '\n';
        const std::string letters = alphabet.decode(seq.residues);
        for (std::size_t off = 0; off < letters.size(); off += width) {
            out << letters.substr(off, width) << '\n';
        }
        if (letters.empty()) out << '\n';
    }
}

void write_fasta_file(const std::string& path,
                      const std::vector<Sequence>& seqs,
                      const Alphabet& alphabet, std::size_t width) {
    std::ofstream out(path);
    if (!out) throw IoError("cannot open file for writing: " + path);
    write_fasta(out, seqs, alphabet, width);
    if (!out) throw IoError("error while writing: " + path);
}

}  // namespace swh::io
