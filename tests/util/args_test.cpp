#include "util/args.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace swh {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
    return {args};
}

TEST(ArgParser, DefaultsApply) {
    ArgParser p("tool", "test tool");
    p.add_option("threads", "worker count", "4");
    p.add_flag("verbose", "talk more");
    const auto argv = argv_of({"tool"});
    ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(p.get("threads"), "4");
    EXPECT_EQ(p.get_int("threads"), 4);
    EXPECT_FALSE(p.get_flag("verbose"));
}

TEST(ArgParser, ParsesSeparateAndEqualsForms) {
    ArgParser p("tool", "t");
    p.add_option("a", "", "0");
    p.add_option("b", "", "0");
    const auto argv = argv_of({"tool", "--a", "1", "--b=2"});
    ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(p.get_int("a"), 1);
    EXPECT_EQ(p.get_int("b"), 2);
}

TEST(ArgParser, FlagsAndPositionals) {
    ArgParser p("tool", "t");
    p.add_flag("fast", "");
    p.add_positional("input", "input file");
    p.add_positional("output", "output file", "out.txt");
    const auto argv = argv_of({"tool", "--fast", "in.fa"});
    ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_TRUE(p.get_flag("fast"));
    EXPECT_EQ(p.get("input"), "in.fa");
    EXPECT_EQ(p.get("output"), "out.txt");
}

TEST(ArgParser, MissingRequiredPositionalThrows) {
    ArgParser p("tool", "t");
    p.add_positional("input", "input file");
    const auto argv = argv_of({"tool"});
    EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
                 ParseError);
}

TEST(ArgParser, UnknownOptionThrows) {
    ArgParser p("tool", "t");
    const auto argv = argv_of({"tool", "--bogus", "1"});
    EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
                 ParseError);
}

// Malformed input is the user's, so the error names the input alone:
// no source location.
TEST(ArgParser, ErrorsCarryTheMessageAlone) {
    ArgParser p("tool", "t");
    p.add_option("n", "", "1x");
    const auto argv = argv_of({"tool", "--bogus"});
    try {
        p.parse(static_cast<int>(argv.size()), argv.data());
        ADD_FAILURE() << "parse accepted an unknown option";
    } catch (const ParseError& e) {
        EXPECT_STREQ(e.what(), "unknown option --bogus");
    }
    try {
        p.get_int("n");
        ADD_FAILURE() << "get_int accepted trailing junk";
    } catch (const ParseError& e) {
        EXPECT_STREQ(e.what(), "--n is not an integer: 1x");
    }
}

TEST(ArgParser, DuplicateOptionIsAContractError) {
    ArgParser p("tool", "t");
    p.add_option("n", "", "1");
    EXPECT_THROW(p.add_option("n", "", "2"), ContractError);
}

TEST(ArgParser, MissingValueThrows) {
    ArgParser p("tool", "t");
    p.add_option("n", "", "1");
    const auto argv = argv_of({"tool", "--n"});
    EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
                 ParseError);
}

TEST(ArgParser, FlagRejectsValue) {
    ArgParser p("tool", "t");
    p.add_flag("f", "");
    const auto argv = argv_of({"tool", "--f=yes"});
    EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
                 ParseError);
}

TEST(ArgParser, NumericValidation) {
    ArgParser p("tool", "t");
    p.add_option("n", "", "abc");
    p.add_option("x", "", "1.5");
    const auto argv = argv_of({"tool"});
    ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_THROW(p.get_int("n"), ParseError);
    EXPECT_DOUBLE_EQ(p.get_double("x"), 1.5);
}

TEST(ArgParser, HelpReturnsFalse) {
    ArgParser p("tool", "t");
    const auto argv = argv_of({"tool", "--help"});
    EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(ArgParser, HelpTextMentionsEverything) {
    ArgParser p("tool", "does things");
    p.add_option("alpha", "the alpha", "7");
    p.add_flag("quick", "go fast");
    p.add_positional("file", "the file");
    const std::string h = p.help();
    EXPECT_NE(h.find("does things"), std::string::npos);
    EXPECT_NE(h.find("--alpha"), std::string::npos);
    EXPECT_NE(h.find("--quick"), std::string::npos);
    EXPECT_NE(h.find("file"), std::string::npos);
    EXPECT_NE(h.find("default: 7"), std::string::npos);
}

}  // namespace
}  // namespace swh
