#include "util/ring_buffer.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace swh {
namespace {

TEST(RingBuffer, StartsEmpty) {
    RingBuffer<int> rb(3);
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.size(), 0u);
    EXPECT_EQ(rb.capacity(), 3u);
}

TEST(RingBuffer, RejectsZeroCapacity) {
    EXPECT_THROW(RingBuffer<int>(0), ContractError);
}

TEST(RingBuffer, FillsThenOverwritesOldest) {
    RingBuffer<int> rb(3);
    rb.push(1);
    rb.push(2);
    rb.push(3);
    EXPECT_TRUE(rb.full());
    rb.push(4);  // evicts 1
    EXPECT_EQ(rb.size(), 3u);
    EXPECT_EQ(rb[0], 2);
    EXPECT_EQ(rb[1], 3);
    EXPECT_EQ(rb[2], 4);
    EXPECT_EQ(rb.newest(), 4);
}

TEST(RingBuffer, ManyWraps) {
    RingBuffer<int> rb(4);
    for (int i = 0; i < 100; ++i) rb.push(i);
    EXPECT_EQ(rb.to_vector(), (std::vector<int>{96, 97, 98, 99}));
}

TEST(RingBuffer, IndexOutOfRangeThrows) {
    RingBuffer<int> rb(2);
    rb.push(1);
    EXPECT_THROW(rb[1], ContractError);
    EXPECT_THROW(RingBuffer<int>(2).newest(), ContractError);
}

TEST(RingBuffer, GrowKeepsOrderAcrossTheWrap) {
    RingBuffer<int> rb(3);
    for (int i = 0; i < 5; ++i) rb.push(i);  // wrapped: holds 2 3 4
    rb.grow();
    EXPECT_EQ(rb.capacity(), 6u);
    EXPECT_FALSE(rb.full());
    rb.push(5);
    rb.push(6);
    rb.push(7);
    EXPECT_EQ(rb.to_vector(), (std::vector<int>{2, 3, 4, 5, 6, 7}));
}

TEST(RingBuffer, Clear) {
    RingBuffer<int> rb(2);
    rb.push(1);
    rb.push(2);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push(9);
    EXPECT_EQ(rb.newest(), 9);
}

}  // namespace
}  // namespace swh
