#include "io/fasta.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace swh::io {
namespace {

using align::Alphabet;
using align::Sequence;

TEST(Fasta, ParsesRecords) {
    std::istringstream in(
        ">seq1 first protein\n"
        "MKVL\n"
        "AWHE\n"
        "\n"
        ">seq2\n"
        "GGGG\n");
    const auto seqs = read_fasta(in, Alphabet::protein());
    ASSERT_EQ(seqs.size(), 2u);
    EXPECT_EQ(seqs[0].id, "seq1");
    EXPECT_EQ(seqs[0].description, "first protein");
    EXPECT_EQ(Alphabet::protein().decode(seqs[0].residues), "MKVLAWHE");
    EXPECT_EQ(seqs[1].id, "seq2");
    EXPECT_EQ(seqs[1].description, "");
    EXPECT_EQ(seqs[1].size(), 4u);
}

TEST(Fasta, EmptyStreamYieldsNoRecords) {
    std::istringstream in("");
    EXPECT_TRUE(read_fasta(in, Alphabet::protein()).empty());
}

TEST(Fasta, RejectsDataBeforeHeader) {
    std::istringstream in("MKVL\n>seq\nAAAA\n");
    EXPECT_THROW(read_fasta(in, Alphabet::protein()), ParseError);
}

TEST(Fasta, RejectsEmptyHeader) {
    std::istringstream in(">\nAAAA\n");
    EXPECT_THROW(read_fasta(in, Alphabet::protein()), ContractError);
}

TEST(Fasta, UnknownResiduesBecomeWildcard) {
    std::istringstream in(">s\nM3V\n");
    const auto seqs = read_fasta(in, Alphabet::protein());
    EXPECT_EQ(Alphabet::protein().decode(seqs[0].residues), "MXV");
}

TEST(Fasta, InteriorWhitespaceIsSkipped) {
    // Spaces and tabs inside a sequence line are layout, not residues, as
    // build_index counts them; other unknown characters stay wildcards.
    std::istringstream in(">a\nMK VL\n>b\nG\tG\v3\n");
    const auto seqs = read_fasta(in, Alphabet::protein());
    ASSERT_EQ(seqs.size(), 2u);
    EXPECT_EQ(Alphabet::protein().decode(seqs[0].residues), "MKVL");
    EXPECT_EQ(Alphabet::protein().decode(seqs[1].residues), "GGX");
}

TEST(Fasta, IndentedHeaderStartsARecord) {
    std::istringstream in(">a\nMK\n  >b  two words \nVL\n");
    const auto seqs = read_fasta(in, Alphabet::protein());
    ASSERT_EQ(seqs.size(), 2u);
    EXPECT_EQ(seqs[1].id, "b");
    EXPECT_EQ(seqs[1].description, "two words");
    EXPECT_EQ(Alphabet::protein().decode(seqs[1].residues), "VL");
}

TEST(Fasta, LowercaseSequenceAccepted) {
    std::istringstream in(">s\nacgt\n");
    const auto seqs = read_fasta(in, Alphabet::dna());
    EXPECT_EQ(Alphabet::dna().decode(seqs[0].residues), "ACGT");
}

TEST(Fasta, WriteReadRoundTrip) {
    std::vector<Sequence> seqs;
    seqs.push_back(Sequence::from_string(Alphabet::protein(), "a",
                                         "MKVLAWHEQNDRST"));
    seqs.back().description = "some protein";
    seqs.push_back(Sequence::from_string(Alphabet::protein(), "b", "GG"));

    std::ostringstream out;
    write_fasta(out, seqs, Alphabet::protein(), 5);
    std::istringstream in(out.str());
    const auto back = read_fasta(in, Alphabet::protein());
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].id, "a");
    EXPECT_EQ(back[0].description, "some protein");
    EXPECT_EQ(back[0].residues, seqs[0].residues);
    EXPECT_EQ(back[1].residues, seqs[1].residues);
}

TEST(Fasta, FoldsAtWidth) {
    std::vector<Sequence> seqs = {
        Sequence::from_string(Alphabet::dna(), "x", "ACGTACGTAC")};
    std::ostringstream out;
    write_fasta(out, seqs, Alphabet::dna(), 4);
    EXPECT_EQ(out.str(), ">x\nACGT\nACGT\nAC\n");
}

TEST(Fasta, MissingFileThrows) {
    EXPECT_THROW(read_fasta_file("/nonexistent/path.fa",
                                 Alphabet::protein()),
                 IoError);
}

}  // namespace
}  // namespace swh::io
