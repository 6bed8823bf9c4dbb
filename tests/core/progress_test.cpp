#include "core/progress.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace swh::core {
namespace {

TEST(ProgressHistory, StartsEmpty) {
    ProgressHistory h(4);
    EXPECT_FALSE(h.has_history());
    EXPECT_EQ(h.rate(), 0.0);
    EXPECT_EQ(h.omega(), 4u);
}

TEST(ProgressHistory, SingleSample) {
    ProgressHistory h(4);
    h.record(2e9);
    EXPECT_TRUE(h.has_history());
    EXPECT_DOUBLE_EQ(h.rate(), 2e9);
}

TEST(ProgressHistory, RecencyWeighting) {
    ProgressHistory h(3);
    h.record(0.0);
    h.record(0.0);
    h.record(6.0);
    // weights 1,2,3 -> 18/6 = 3.
    EXPECT_DOUBLE_EQ(h.rate(), 3.0);
}

TEST(ProgressHistory, WindowEvictsOldest) {
    ProgressHistory h(2);
    h.record(100.0);
    h.record(4.0);
    h.record(4.0);  // evicts 100
    EXPECT_DOUBLE_EQ(h.rate(), 4.0);
}

TEST(ProgressHistory, SmallOmegaReactsFaster) {
    ProgressHistory fast(2), slow(16);
    for (int i = 0; i < 16; ++i) {
        fast.record(10.0);
        slow.record(10.0);
    }
    // The PE slows down to 1.0 (the paper's Fig. 8 local-load case).
    for (int i = 0; i < 2; ++i) {
        fast.record(1.0);
        slow.record(1.0);
    }
    EXPECT_LT(fast.rate(), slow.rate());
    EXPECT_DOUBLE_EQ(fast.rate(), 1.0);  // window fully replaced
}

TEST(ProgressHistory, IgnoresNegativeSamples) {
    ProgressHistory h(4);
    h.record(-5.0);
    EXPECT_FALSE(h.has_history());
}

TEST(ProgressHistory, IgnoresNonFiniteSamples) {
    ProgressHistory h(4);
    h.record(std::numeric_limits<double>::infinity());
    h.record(std::numeric_limits<double>::quiet_NaN());
    EXPECT_FALSE(h.has_history());
    h.record(3e9);
    h.record(std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_DOUBLE_EQ(h.rate(), 3e9);
}

}  // namespace
}  // namespace swh::core
