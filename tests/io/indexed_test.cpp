#include "io/indexed.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "io/fasta.hpp"
#include "util/error.hpp"

namespace swh::io {
namespace {

using align::Alphabet;

const char* kFasta =
    ">alpha first\n"
    "MKVL\n"
    "AWHE\n"
    ">beta\n"
    "GG\n"
    ">gamma long one\n"
    "MKVLAWHEQNDRST\n";

class TempDir : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("swh_idx_test_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string write_fasta_file(const std::string& name,
                                 const std::string& content) {
        const std::string path = (dir_ / name).string();
        std::ofstream out(path);
        out << content;
        return path;
    }

    std::filesystem::path dir_;
};

TEST(BuildIndex, CountsAndOffsets) {
    std::istringstream in(kFasta);
    const SequenceIndex idx = build_index(in);
    EXPECT_EQ(idx.sequence_count, 3u);
    EXPECT_EQ(idx.max_sequence_length, 14u);
    EXPECT_EQ(idx.total_residues, 8u + 2u + 14u);
    ASSERT_EQ(idx.offsets.size(), 3u);
    EXPECT_EQ(idx.offsets[0], 0u);
    // ">alpha first\n" (13) + "MKVL\n" (5) + "AWHE\n" (5) = 23.
    EXPECT_EQ(idx.offsets[1], 23u);
    EXPECT_EQ(idx.lengths, (std::vector<std::uint64_t>{8, 2, 14}));
}

TEST(BuildIndex, LengthsSkipInteriorWhitespaceAsTheParserDoes) {
    const char* text = ">a\nMK VL\n>b\nG\tG\n";
    std::istringstream idx_in(text);
    const SequenceIndex idx = build_index(idx_in);
    std::istringstream seq_in(text);
    const auto seqs = read_fasta(seq_in, Alphabet::protein());
    ASSERT_EQ(seqs.size(), 2u);
    EXPECT_EQ(idx.lengths, (std::vector<std::uint64_t>{4, 2}));
    EXPECT_EQ(seqs[0].size(), 4u);
    EXPECT_EQ(seqs[1].size(), 2u);
}

TEST(BuildIndex, IndentedHeaderOffsetIsItsAngleBracket) {
    std::istringstream in(">a\nMK\n  >b\nVL\n");
    const SequenceIndex idx = build_index(in);
    EXPECT_EQ(idx.offsets, (std::vector<std::uint64_t>{0, 8}));
    EXPECT_EQ(idx.lengths, (std::vector<std::uint64_t>{2, 2}));
}

TEST(BuildIndex, RejectsDataBeforeHeaderAsTheParserDoes) {
    std::istringstream in("MKVL\n>seq\nAAAA\n");
    EXPECT_THROW(build_index(in), ParseError);
}

TEST(BuildIndex, EmptyStream) {
    std::istringstream in("");
    const SequenceIndex idx = build_index(in);
    EXPECT_TRUE(idx.empty());
    EXPECT_EQ(idx.max_sequence_length, 0u);
}

TEST(IndexSerde, RoundTrip) {
    std::istringstream in(kFasta);
    const SequenceIndex idx = build_index(in);
    std::stringstream buf;
    save_index(idx, buf);
    const SequenceIndex back = load_index(buf);
    EXPECT_EQ(back.sequence_count, idx.sequence_count);
    EXPECT_EQ(back.max_sequence_length, idx.max_sequence_length);
    EXPECT_EQ(back.total_residues, idx.total_residues);
    EXPECT_EQ(back.source_size, std::string(kFasta).size());
    EXPECT_EQ(back.source_mtime_ns, idx.source_mtime_ns);
    EXPECT_EQ(back.offsets, idx.offsets);
    EXPECT_EQ(back.lengths, idx.lengths);
}

TEST(IndexSerde, RejectsBadMagic) {
    std::istringstream in("NOTANIDX0000000000000000");
    EXPECT_THROW(load_index(in), ParseError);
}

TEST(IndexSerde, RejectsTruncated) {
    std::istringstream in(kFasta);
    const SequenceIndex idx = build_index(in);
    std::stringstream buf;
    save_index(idx, buf);
    std::string bytes = buf.str();
    bytes.resize(bytes.size() / 2);
    std::istringstream cut(bytes);
    EXPECT_THROW(load_index(cut), ParseError);
}

TEST_F(TempDir, IndexedReaderRandomAccess) {
    const std::string path = write_fasta_file("db.fa", kFasta);
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.size(), 3u);

    const align::Sequence beta = reader.get(1);
    EXPECT_EQ(beta.id, "beta");
    EXPECT_EQ(Alphabet::protein().decode(beta.residues), "GG");

    const align::Sequence gamma = reader.get(2);
    EXPECT_EQ(gamma.id, "gamma");
    EXPECT_EQ(gamma.description, "long one");
    EXPECT_EQ(gamma.size(), 14u);

    const align::Sequence alpha = reader.get(0);
    EXPECT_EQ(alpha.id, "alpha");
    EXPECT_EQ(Alphabet::protein().decode(alpha.residues), "MKVLAWHE");

    EXPECT_THROW(reader.get(3), ContractError);
}

TEST_F(TempDir, IndexedReaderWritesSidecar) {
    const std::string path = write_fasta_file("db.fa", kFasta);
    {
        const IndexedFastaReader reader(path, Alphabet::protein());
        (void)reader;
    }
    EXPECT_TRUE(std::filesystem::exists(index_path_for(path)));
    // Second open loads the sidecar (and must agree).
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.size(), 3u);
    EXPECT_EQ(reader.get(1).id, "beta");
}

// ---- Hostile-index fixtures (regressions for fuzz findings) ------------

namespace {

/// Serialises a hand-built (possibly inconsistent) index without going
/// through save_index, which validates its input. The default size lies
/// past every offset the tests use, so only the fields under test are
/// wrong.
std::string raw_index(std::uint64_t count, std::uint64_t maxlen,
                      std::uint64_t total,
                      const std::vector<std::uint64_t>& offsets,
                      const std::vector<std::uint64_t>& lengths,
                      std::uint64_t source_size = 1 << 20,
                      std::int64_t source_mtime_ns = 0,
                      const char* magic = "SWHIDX2\n") {
    std::string out(magic);
    const auto put = [&out](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    put(count);
    put(maxlen);
    put(total);
    if (std::string(magic) == "SWHIDX2\n") {
        put(source_size);
        put(static_cast<std::uint64_t>(source_mtime_ns));
    }
    for (const std::uint64_t v : offsets) put(v);
    for (const std::uint64_t v : lengths) put(v);
    return out;
}

std::int64_t mtime_ns(const std::string& path) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::filesystem::last_write_time(path).time_since_epoch())
        .count();
}

/// Writes `fasta_path`'s sidecar from a hand-built index stamped with
/// the file's current size and modification time: a sidecar that lies
/// about its records but not about its file, so the reader loads it
/// and only slice()'s per-record checks can catch it.
void forge_sidecar(const std::string& fasta_path, std::uint64_t count,
                   std::uint64_t maxlen, std::uint64_t total,
                   const std::vector<std::uint64_t>& offsets,
                   const std::vector<std::uint64_t>& lengths) {
    std::ofstream out(index_path_for(fasta_path), std::ios::binary);
    out << raw_index(count, maxlen, total, offsets, lengths,
                     std::filesystem::file_size(fasta_path),
                     mtime_ns(fasta_path));
}

}  // namespace

TEST(IndexSerde, HugeClaimedCountIsCheapParseError) {
    // Header advertises 2^61 sequences with no table behind it. The
    // loader must fail on the missing bytes, not pre-allocate exabytes
    // from the untrusted count (the original implementation resized
    // offsets/lengths up front).
    std::istringstream in(raw_index(std::uint64_t{1} << 61, 10, 100, {}, {}));
    EXPECT_THROW(load_index(in), ParseError);
}

TEST(IndexSerde, RejectsSummaryDisagreeingWithLengths) {
    // total_residues and max_sequence_length must match the table.
    std::istringstream wrong_total(raw_index(2, 14, 999, {0, 23}, {8, 14}));
    EXPECT_THROW(load_index(wrong_total), ParseError);
    std::istringstream wrong_max(raw_index(2, 99, 22, {0, 23}, {8, 14}));
    EXPECT_THROW(load_index(wrong_max), ParseError);
}

TEST(IndexSerde, RejectsOffsetsPastTheIndexedSize) {
    // The last header cannot start at or past the end of the bytes
    // indexed.
    std::istringstream at_end(raw_index(2, 14, 22, {0, 23}, {8, 14}, 23));
    EXPECT_THROW(load_index(at_end), ParseError);
    std::istringstream inside(raw_index(2, 14, 22, {0, 23}, {8, 14}, 24));
    EXPECT_NO_THROW(load_index(inside));
}

TEST(IndexSerde, RejectsTheUnstampedFormat) {
    // A SWHIDX1 sidecar records no file size or time: it cannot tell a
    // grown or edited file, so it is rejected, and the reader rebuilds.
    std::istringstream old(
        raw_index(2, 14, 22, {0, 23}, {8, 14}, 0, 0, "SWHIDX1\n"));
    EXPECT_THROW(load_index(old), ParseError);
}

TEST(IndexSerde, RejectsNonIncreasingOffsets) {
    std::istringstream dup(raw_index(2, 14, 22, {23, 23}, {8, 14}));
    EXPECT_THROW(load_index(dup), ParseError);
    std::istringstream back(raw_index(2, 14, 22, {23, 0}, {8, 14}));
    EXPECT_THROW(load_index(back), ParseError);
}

TEST_F(TempDir, SidecarRecordsTheFileSizeAndTime) {
    const std::string path = write_fasta_file("db.fa", kFasta);
    { const IndexedFastaReader writes_sidecar(path, Alphabet::protein()); }
    const SequenceIndex saved = load_index_file(index_path_for(path));
    EXPECT_EQ(saved.source_size, std::filesystem::file_size(path));
    EXPECT_EQ(saved.source_mtime_ns, mtime_ns(path));
    EXPECT_EQ(saved.sequence_count, 3u);
}

TEST_F(TempDir, StaleSidecarPointingPastEofIsRebuilt) {
    const std::string path = write_fasta_file("db.fa", kFasta);
    // Offsets of a larger FASTA (last record claimed at byte 10'000),
    // stamped with this file's size and time: the loader rejects an
    // offset past the size it records.
    forge_sidecar(path, 2, 5, 9, {0, 10'000}, {4, 5});
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.size(), 3u);  // rebuilt from the flat file
    EXPECT_EQ(reader.get(2).id, "gamma");
}

TEST_F(TempDir, IndexPointingAtNonRecordThrowsParseError) {
    const std::string path = write_fasta_file("db.fa", kFasta);
    // In-range offsets that land mid-record (byte 5 is inside alpha's
    // header line, not at a '>').
    forge_sidecar(path, 2, 5, 9, {5, 30}, {4, 5});
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_THROW(reader.get(0), ParseError);
}

TEST_F(TempDir, IndexedReaderRebuildsCorruptSidecar) {
    const std::string path = write_fasta_file("db.fa", kFasta);
    {
        std::ofstream bad(index_path_for(path));
        bad << "garbage";
    }
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.size(), 3u);
}

TEST_F(TempDir, SliceReadsContiguousRecords) {
    const std::string path = write_fasta_file("db.fa", kFasta);
    const IndexedFastaReader reader(path, Alphabet::protein());
    const auto seqs = reader.slice(1, 2);
    ASSERT_EQ(seqs.size(), 2u);
    EXPECT_EQ(seqs[0].id, "beta");
    EXPECT_EQ(seqs[1].id, "gamma");
    EXPECT_THROW(reader.slice(2, 2), ContractError);
}

TEST_F(TempDir, MatchesSequentialParser) {
    const std::string path = write_fasta_file("db.fa", kFasta);
    const auto sequential = read_fasta_file(path, Alphabet::protein());
    const IndexedFastaReader reader(path, Alphabet::protein());
    ASSERT_EQ(reader.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(reader.get(i).id, sequential[i].id);
        EXPECT_EQ(reader.get(i).residues, sequential[i].residues);
    }
}

TEST_F(TempDir, NoTrailingNewline) {
    const std::string path =
        write_fasta_file("db.fa", ">a\nMK\n>b\nVL");  // no final \n
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.size(), 2u);
    EXPECT_EQ(Alphabet::protein().decode(reader.get(1).residues), "VL");
    EXPECT_EQ(reader.index().total_residues, 4u);
}

// ---- One scanner: slice, get and read_fasta_file agree ------------------

namespace {

void expect_same(const std::vector<align::Sequence>& got,
                 const std::vector<align::Sequence>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << i;
        EXPECT_EQ(got[i].description, want[i].description) << i;
        EXPECT_EQ(got[i].residues, want[i].residues) << i;
    }
}

/// slice(b, c) must equal get(b) ... get(b+c-1) and the same records of
/// `expected` (read_fasta_file's parse) for every range.
void expect_readers_agree(const IndexedFastaReader& reader,
                          const std::vector<align::Sequence>& expected) {
    ASSERT_EQ(reader.size(), expected.size());
    for (std::size_t b = 0; b <= expected.size(); ++b) {
        for (std::size_t c = 0; b + c <= expected.size(); ++c) {
            const std::vector<align::Sequence> want(
                expected.begin() + static_cast<std::ptrdiff_t>(b),
                expected.begin() + static_cast<std::ptrdiff_t>(b + c));
            std::vector<align::Sequence> one_by_one;
            for (std::size_t i = b; i < b + c; ++i)
                one_by_one.push_back(reader.get(i));
            SCOPED_TRACE("slice(" + std::to_string(b) + ", " +
                         std::to_string(c) + ")");
            expect_same(reader.slice(b, c), want);
            expect_same(one_by_one, want);
        }
    }
}

}  // namespace

TEST_F(TempDir, ReadersAgreeOnFoldedCrlfBlankLowercaseNoTrailingNewline) {
    const std::string path = write_fasta_file(
        "db.fa",
        ">a first one\r\nmkvl\r\nAWHE\r\n\r\n"
        ">b\r\n\r\ngg\r\n\n"
        ">c  padded  \nMK\nvl\nQN");
    const auto expected = read_fasta_file(path, Alphabet::protein());
    ASSERT_EQ(expected.size(), 3u);
    EXPECT_EQ(expected[0].description, "first one");
    EXPECT_EQ(Alphabet::protein().decode(expected[2].residues), "MKVLQN");
    expect_readers_agree(IndexedFastaReader(path, Alphabet::protein()),
                         expected);
    // Again through the sidecar the first reader wrote.
    expect_readers_agree(IndexedFastaReader(path, Alphabet::protein()),
                         expected);
}

TEST_F(TempDir, ReadersAgreeOnIndentedHeader) {
    const std::string path =
        write_fasta_file("db.fa", ">a\nMK\n  >b desc\nVL\n\t>c\nGG\n");
    const auto expected = read_fasta_file(path, Alphabet::protein());
    ASSERT_EQ(expected.size(), 3u);
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.index().offsets,
              (std::vector<std::uint64_t>{0, 8, 20}));
    expect_readers_agree(reader, expected);
}

TEST_F(TempDir, ReadersAgreeOnInteriorWhitespace) {
    const std::string path =
        write_fasta_file("db.fa", ">a\nMK VL\n>b\nG\tG\n");
    const auto expected = read_fasta_file(path, Alphabet::protein());
    EXPECT_EQ(Alphabet::protein().decode(expected[0].residues), "MKVL");
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.index().lengths, (std::vector<std::uint64_t>{4, 2}));
    expect_readers_agree(reader, expected);
}

TEST_F(TempDir, ReadFastaFileReadsAPipe) {
    // A pipe has no size to seek by (`<(zcat db.fa.gz)`, say); the file
    // read falls back to streaming it.
    const std::string path = (dir_ / "pipe.fa").string();
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    std::thread writer([&path] {
        std::ofstream out(path);
        out << kFasta;
    });
    std::vector<align::Sequence> seqs;
    EXPECT_NO_THROW(seqs = read_fasta_file(path, Alphabet::protein()));
    writer.join();
    std::istringstream in(kFasta);
    expect_same(seqs, read_fasta(in, Alphabet::protein()));
}

TEST_F(TempDir, GrownFileStillReadsExactlyTheIndexedRecords) {
    // The sidecar records the size it indexed: a grown file is indexed
    // again, and the appended record is read.
    const std::string path = write_fasta_file("db.fa", kFasta);
    { const IndexedFastaReader writes_sidecar(path, Alphabet::protein()); }
    {
        std::ofstream grow(path, std::ios::app);
        grow << ">delta appended later\nWWWW\n";
    }
    const auto expected = read_fasta_file(path, Alphabet::protein());
    ASSERT_EQ(expected.size(), 4u);
    const IndexedFastaReader reader(path, Alphabet::protein());
    ASSERT_EQ(reader.size(), 4u);
    EXPECT_EQ(reader.index().source_size, std::filesystem::file_size(path));
    expect_readers_agree(reader, expected);
}

TEST_F(TempDir, InPlaceEditWithAlignedOffsetsIsRebuilt) {
    // Same size, same header offsets, other record lengths ("AWHE"
    // becomes "AW E"). The edit's new modification time tells the
    // sidecar is stale; it is set explicitly so a coarse file clock
    // cannot hide it.
    const std::string path = write_fasta_file("db.fa", kFasta);
    { const IndexedFastaReader writes_sidecar(path, Alphabet::protein()); }
    const auto written = std::filesystem::last_write_time(path);
    std::string edited(kFasta);
    edited.replace(edited.find("AWHE"), 4, "AW E");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << edited;
    }
    std::filesystem::last_write_time(path, written + std::chrono::seconds(1));
    const auto expected = read_fasta_file(path, Alphabet::protein());
    EXPECT_EQ(Alphabet::protein().decode(expected[0].residues), "MKVLAWE");
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.index().lengths, (std::vector<std::uint64_t>{7, 2, 14}));
    EXPECT_EQ(reader.index().source_mtime_ns, mtime_ns(path));
    expect_readers_agree(reader, expected);
}

TEST_F(TempDir, OffsetMidRecordThrowsParseError) {
    const std::string path = write_fasta_file("db.fa", kFasta);
    // alpha and beta are indexed right; gamma's header is at 32, the
    // index says 50 (inside its residues).
    forge_sidecar(path, 3, 14, 24, {0, 23, 50}, {8, 2, 14});
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.get(0).id, "alpha");
    EXPECT_THROW(reader.get(1), ParseError);  // gamma's header in range
    EXPECT_THROW(reader.get(2), ParseError);  // starts mid-record
    EXPECT_THROW(reader.slice(0, 3), ParseError);
}

TEST_F(TempDir, StaleLengthWithAlignedOffsetsThrowsParseError) {
    // Right offsets, consistent summary, wrong per-record lengths, and
    // the file's own size and time: the stamp cannot tell this sidecar
    // is wrong, so slice()'s length check must.
    const std::string path = write_fasta_file("db.fa", kFasta);
    forge_sidecar(path, 3, 14, 24, {0, 23, 32}, {7, 3, 14});
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_THROW(reader.get(0), ParseError);
    EXPECT_THROW(reader.get(1), ParseError);
    EXPECT_EQ(reader.get(2).id, "gamma");
    EXPECT_THROW(reader.slice(0, 3), ParseError);
}

TEST_F(TempDir, IndexedRecordMissingFromTheFileThrowsParseError) {
    // The file lost its last record but kept trailing blank lines, so the
    // sidecar's last offset still lies inside it: two records parse where
    // the index promises three.
    const std::string path = write_fasta_file(
        "db.fa", ">alpha first\nMKVL\nAWHE\n>beta\nGG\n\n\n\n");
    forge_sidecar(path, 3, 8, 10, {0, 23, 33}, {8, 2, 0});
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.get(1).id, "beta");
    EXPECT_THROW(reader.get(2), ParseError);
    EXPECT_THROW(reader.slice(0, 3), ParseError);
}

TEST_F(TempDir, HugeIndexedLengthsAllocateNoMoreThanTheBytesRead) {
    const std::string path = write_fasta_file("db.fa", kFasta);
    constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
    // 2^40 residues claimed per record: a reservation sized from the
    // index alone would ask for terabytes before the length check.
    forge_sidecar(path, 3, kHuge, 3 * kHuge, {0, 23, 32},
                  {kHuge, kHuge, kHuge});
    const IndexedFastaReader reader(path, Alphabet::protein());
    EXPECT_EQ(reader.index().max_sequence_length, kHuge);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_THROW(reader.get(i), ParseError) << i;
    EXPECT_THROW(reader.slice(0, 3), ParseError);
}

}  // namespace
}  // namespace swh::io
