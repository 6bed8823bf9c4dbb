#include "io/indexed.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>

#include "io/fasta_scan.hpp"
#include "util/error.hpp"

namespace swh::io {

namespace {

constexpr char kMagic[8] = {'S', 'W', 'H', 'I', 'D', 'X', '2', '\n'};

/// The modification time a sidecar records for its FASTA file.
std::int64_t mtime_ns_of(const std::string& path) {
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(path, ec);
    if (ec) throw IoError("cannot stat FASTA file: " + path);
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            mtime.time_since_epoch())
            .count());
}

void write_u64(std::ostream& out, std::uint64_t v) {
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
    out.write(reinterpret_cast<const char*>(buf), 8);
}

std::uint64_t read_u64(std::istream& in) {
    unsigned char buf[8];
    in.read(reinterpret_cast<char*>(buf), 8);
    if (!in) throw ParseError("truncated index stream");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{buf[i]} << (8 * i);
    return v;
}

SequenceIndex index_fasta(std::string_view text) {
    SequenceIndex idx;
    scan_fasta(
        text,
        [&idx](const FastaHeader& h) {
            idx.offsets.push_back(h.pos);
            idx.lengths.push_back(0);
            return true;
        },
        [&idx](std::string_view line) {
            idx.lengths.back() += residue_count(line);
        });
    idx.sequence_count = idx.offsets.size();
    idx.source_size = text.size();
    for (const std::uint64_t len : idx.lengths) {
        idx.total_residues += len;
        idx.max_sequence_length = std::max(idx.max_sequence_length, len);
    }
    return idx;
}

}  // namespace

SequenceIndex build_index(std::istream& fasta) {
    return index_fasta(read_stream_bytes(fasta));
}

SequenceIndex build_index_file(const std::string& fasta_path) {
    // Stamped before the read: a file written meanwhile then disagrees
    // with its sidecar at the next open and is indexed again.
    const std::int64_t mtime_ns = mtime_ns_of(fasta_path);
    SequenceIndex idx = index_fasta(read_file_bytes(fasta_path));
    idx.source_mtime_ns = mtime_ns;
    return idx;
}

void save_index(const SequenceIndex& index, std::ostream& out) {
    SWH_REQUIRE(index.offsets.size() == index.sequence_count &&
                    index.lengths.size() == index.sequence_count,
                "index vectors inconsistent with sequence_count");
    out.write(kMagic, sizeof kMagic);
    write_u64(out, index.sequence_count);
    write_u64(out, index.max_sequence_length);
    write_u64(out, index.total_residues);
    write_u64(out, index.source_size);
    write_u64(out, static_cast<std::uint64_t>(index.source_mtime_ns));
    for (const std::uint64_t v : index.offsets) write_u64(out, v);
    for (const std::uint64_t v : index.lengths) write_u64(out, v);
}

void save_index_file(const SequenceIndex& index, const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw IoError("cannot open index for writing: " + path);
    save_index(index, out);
    if (!out) throw IoError("error writing index: " + path);
}

SequenceIndex load_index(std::istream& in) {
    char magic[sizeof kMagic];
    in.read(magic, sizeof magic);
    if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0)
        throw ParseError("not a SWHIDX2 index stream");
    SequenceIndex idx;
    idx.sequence_count = read_u64(in);
    idx.max_sequence_length = read_u64(in);
    idx.total_residues = read_u64(in);
    idx.source_size = read_u64(in);
    idx.source_mtime_ns = static_cast<std::int64_t>(read_u64(in));
    // The header count is untrusted: never pre-size containers from it
    // (a corrupt count like 2^61 would demand a multi-exabyte
    // allocation before the truncation was ever noticed). Grow with the
    // bytes actually present; a short stream throws ParseError inside
    // read_u64 once the data runs out.
    constexpr std::uint64_t kReserveCap = std::uint64_t{1} << 20;
    idx.offsets.reserve(
        static_cast<std::size_t>(std::min(idx.sequence_count, kReserveCap)));
    idx.lengths.reserve(
        static_cast<std::size_t>(std::min(idx.sequence_count, kReserveCap)));
    for (std::uint64_t i = 0; i < idx.sequence_count; ++i)
        idx.offsets.push_back(read_u64(in));
    for (std::uint64_t i = 0; i < idx.sequence_count; ++i)
        idx.lengths.push_back(read_u64(in));
    // Cross-field validation: a loaded index must obey the invariants
    // build_index produces, or seeks computed from it are garbage.
    std::uint64_t total = 0;
    std::uint64_t longest = 0;
    for (const std::uint64_t len : idx.lengths) {
        total += len;
        longest = std::max(longest, len);
    }
    if (total != idx.total_residues || longest != idx.max_sequence_length)
        throw ParseError("index summary fields disagree with its lengths");
    for (std::size_t i = 1; i < idx.offsets.size(); ++i) {
        if (idx.offsets[i] <= idx.offsets[i - 1])
            throw ParseError("index offsets must be strictly increasing");
    }
    if (!idx.offsets.empty() && idx.offsets.back() >= idx.source_size)
        throw ParseError("index offsets must lie inside the indexed file");
    return idx;
}

SequenceIndex load_index_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open index file: " + path);
    return load_index(in);
}

std::string index_path_for(const std::string& fasta_path) {
    return fasta_path + ".swhidx";
}

IndexedFastaReader::IndexedFastaReader(std::string fasta_path,
                                       const align::Alphabet& alphabet)
    : path_(std::move(fasta_path)), alphabet_(&alphabet) {
    const std::string idx_path = index_path_for(path_);
    bool loaded = false;
    if (std::ifstream probe(idx_path, std::ios::binary); probe) {
        try {
            index_ = load_index(probe);
            loaded = true;
        } catch (const ParseError&) {
            // Corrupt sidecar, or one of an older format: rebuild below.
        }
    }
    if (loaded) {
        // A sidecar written for another version of the file — grown,
        // shrunk, replaced or edited in place — is rebuilt. slice()'s
        // per-record checks stay the backstop for a sidecar that lies
        // about the stamp.
        std::error_code ec;
        const std::uintmax_t size = std::filesystem::file_size(path_, ec);
        if (ec) throw IoError("cannot stat FASTA file: " + path_);
        loaded = index_.source_size == size &&
                 index_.source_mtime_ns == mtime_ns_of(path_);
    }
    if (!loaded) {
        index_ = build_index_file(path_);
        try {
            save_index_file(index_, idx_path);
        } catch (const IoError&) {
            // Read-only location: index stays in memory only.
        }
    }
}

align::Sequence IndexedFastaReader::get(std::size_t i) const {
    return std::move(slice(i, 1).front());
}

std::vector<align::Sequence> IndexedFastaReader::slice(
    std::size_t begin, std::size_t count) const {
    const std::uint64_t n = index_.sequence_count;
    SWH_REQUIRE(begin <= n && count <= n - begin, "slice out of range");
    std::vector<align::Sequence> out;
    if (count == 0) return out;
    // One read from the first record's header to the next record's, or
    // to EOF after the last record.
    const std::uint64_t first = index_.offsets[begin];
    const bool to_eof = begin + count == n;
    const std::string bytes = read_file_bytes(
        path_, first,
        to_eof ? std::numeric_limits<std::uint64_t>::max()
               : index_.offsets[begin + count]);
    // The sidecar is untrusted input. Each header must sit at its indexed
    // offset, exactly `count` records must parse, and each must have its
    // indexed length; index lengths only size reservations, capped by the
    // bytes read.
    const auto stale = [this](std::size_t record, const char* what) {
        return ParseError("index " + index_path_for(path_) + " is stale: " +
                          what + " (record " + std::to_string(record) + ")");
    };
    const auto check_length = [&] {
        const std::size_t record = begin + out.size() - 1;
        if (out.back().size() != index_.lengths[record])
            throw stale(record, "parsed length differs from indexed length");
    };
    out.reserve(count);
    scan_fasta(
        bytes,
        [&](const FastaHeader& h) {
            const std::size_t k = out.size();
            // A bounded range holds exactly `count` headers; past the last
            // record, one more header is a record appended since indexing.
            if (k == count) {
                if (to_eof) return false;
                throw stale(begin + k, "unindexed record inside the range");
            }
            if (first + h.pos != index_.offsets[begin + k])
                throw stale(begin + k, "offset is not at its header");
            if (k > 0) check_length();
            out.push_back(align::Sequence{std::string(h.id),
                                          std::string(h.description), {}});
            out.back().residues.reserve(static_cast<std::size_t>(
                std::min<std::uint64_t>(index_.lengths[begin + k],
                                        bytes.size() - h.pos)));
            return true;
        },
        [&](std::string_view line) {
            append_residues(line, *alphabet_, out.back().residues);
        });
    if (out.size() != count)
        throw stale(begin + out.size(), "record missing from the file");
    check_length();
    return out;
}

}  // namespace swh::io
