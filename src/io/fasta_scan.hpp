#pragma once

// The one FASTA line scanner behind read_fasta, build_index and
// IndexedFastaReader::slice, and the one file read they share. Private
// to src/io: callers use fasta.hpp and indexed.hpp.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "align/alphabet.hpp"
#include "util/error.hpp"

namespace swh::io {

/// ASCII whitespace, as the "C" locale's isspace sees it.
constexpr bool is_fasta_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Reads bytes [begin, end) of a file in one positioned read, clamped to
/// the file's size: the default `end` reads to EOF, and a range past EOF
/// reads what is there. Throws IoError when the file cannot be opened.
std::string read_file_bytes(
    const std::string& path, std::uint64_t begin = 0,
    std::uint64_t end = std::numeric_limits<std::uint64_t>::max());

/// Reads a stream to its end.
std::string read_stream_bytes(std::istream& in);

/// Appends the codes of one residue line, skipping its interior
/// whitespace, so a record's length is its count of non-space bytes.
inline void append_residues(std::string_view line,
                            const align::Alphabet& alphabet,
                            std::vector<align::Code>& out) {
    const std::size_t old = out.size();
    out.resize(old + line.size());
    align::Code* w = out.data() + old;
    for (const char c : line) {
        *w = alphabet.encode(c);
        w += is_fasta_space(c) ? 0 : 1;
    }
    out.resize(static_cast<std::size_t>(w - out.data()));
}

/// Residues a line contributes: its non-space bytes.
inline std::uint64_t residue_count(std::string_view line) {
    std::uint64_t n = 0;
    for (const char c : line) n += is_fasta_space(c) ? 0 : 1;
    return n;
}

/// A header line: the '>' sits at byte `pos` of the scanned text.
struct FastaHeader {
    std::size_t pos = 0;
    std::string_view id;
    std::string_view description;
};

/// Scans FASTA text line by line. Lines end at '\n' and are trimmed of
/// ASCII whitespace; blank lines are skipped. A line starting with '>'
/// is a header: its id runs to the first space or tab, the trimmed rest
/// is the description, and `on_header(h)` returning false stops the scan
/// before that record. Any other line holds residues and goes to
/// `on_residues(line)`. Throws ParseError on residues before the first
/// header and ContractError on a header with no id.
template <class OnHeader, class OnResidues>
void scan_fasta(std::string_view text, OnHeader&& on_header,
                OnResidues&& on_residues) {
    const char* const base = text.data();
    const char* const end = base + text.size();
    const char* p = base;
    bool in_record = false;
    while (p < end) {
        const auto* nl = static_cast<const char*>(
            std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
        const char* b = p;
        const char* e = nl != nullptr ? nl : end;
        p = nl != nullptr ? nl + 1 : end;
        while (b < e && is_fasta_space(*b)) ++b;
        while (e > b && is_fasta_space(e[-1])) --e;
        if (b == e) continue;
        if (*b == '>') {
            const char* h = b + 1;
            while (h < e && is_fasta_space(*h)) ++h;
            SWH_REQUIRE(h < e, "FASTA header with no id");
            const std::string_view header(
                h, static_cast<std::size_t>(e - h));
            FastaHeader rec;
            rec.pos = static_cast<std::size_t>(b - base);
            const std::size_t sp = header.find_first_of(" \t");
            rec.id = header.substr(0, sp);
            if (sp != std::string_view::npos) {
                std::string_view rest = header.substr(sp + 1);
                while (!rest.empty() && is_fasta_space(rest.front()))
                    rest.remove_prefix(1);
                rec.description = rest;
            }
            if (!on_header(rec)) return;
            in_record = true;
        } else {
            if (!in_record) {
                const auto line_no =
                    1 + std::count(base, b, '\n');  // only on the error path
                throw ParseError("FASTA line " + std::to_string(line_no) +
                                 ": sequence data before any header");
            }
            on_residues(
                std::string_view(b, static_cast<std::size_t>(e - b)));
        }
    }
}

}  // namespace swh::io
