#include "core/policy.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace swh::core {
namespace {

SlaveView slave(PeId id, PeKind kind, double rate) {
    SlaveView v;
    v.id = id;
    v.kind = kind;
    v.rate = rate;
    v.has_rate = rate > 0.0;
    return v;
}

TEST(SelfScheduling, AlwaysOne) {
    auto p = make_self_scheduling();
    const std::vector<SlaveView> all = {slave(0, PeKind::Gpu, 6e9),
                                        slave(1, PeKind::SseCore, 1e9)};
    EXPECT_EQ(p->batch_size(all[0], all, 10, 20), 1u);
    EXPECT_EQ(p->batch_size(all[1], all, 10, 20), 1u);
    EXPECT_EQ(p->batch_size(all[0], all, 0, 20), 0u);
    EXPECT_EQ(p->name(), "SS");
}

TEST(ChunkedSelfScheduling, FixedChunk) {
    auto p = make_chunked_self_scheduling(4);
    const std::vector<SlaveView> all = {slave(0, PeKind::SseCore, 1e9)};
    EXPECT_EQ(p->batch_size(all[0], all, 10, 10), 4u);
    EXPECT_EQ(p->batch_size(all[0], all, 3, 10), 3u);  // clamped
    EXPECT_THROW(make_chunked_self_scheduling(0), ContractError);
}

TEST(Pss, FirstAllocationIsOne) {
    auto p = make_pss();
    const std::vector<SlaveView> all = {slave(0, PeKind::Gpu, 0.0),
                                        slave(1, PeKind::SseCore, 0.0)};
    EXPECT_EQ(p->batch_size(all[0], all, 20, 20), 1u);
}

TEST(Pss, PaperExampleSixToOne) {
    // Paper Fig. 5: GPU is 6x an SSE core => Phi = 6.
    auto p = make_pss();
    const std::vector<SlaveView> all = {slave(0, PeKind::Gpu, 6e9),
                                        slave(1, PeKind::SseCore, 1e9),
                                        slave(2, PeKind::SseCore, 1e9),
                                        slave(3, PeKind::SseCore, 1e9)};
    EXPECT_EQ(p->batch_size(all[0], all, 16, 20), 6u);
    EXPECT_EQ(p->batch_size(all[1], all, 16, 20), 1u);
}

TEST(Pss, ClampsToReady) {
    auto p = make_pss();
    const std::vector<SlaveView> all = {slave(0, PeKind::Gpu, 10e9),
                                        slave(1, PeKind::SseCore, 1e9)};
    EXPECT_EQ(p->batch_size(all[0], all, 3, 20), 3u);
    // A ratio far past long long's range must still clamp, not wrap.
    const std::vector<SlaveView> huge = {slave(0, PeKind::SseCore, 1e300),
                                         slave(1, PeKind::SseCore, 1.0)};
    EXPECT_EQ(p->batch_size(huge[0], huge, 7, 20), 7u);
}

TEST(Pss, SlowestGetsOne) {
    auto p = make_pss();
    const std::vector<SlaveView> all = {slave(0, PeKind::Gpu, 6e9),
                                        slave(1, PeKind::SseCore, 1e9)};
    EXPECT_EQ(p->batch_size(all[1], all, 20, 20), 1u);
}

TEST(Pss, RoundsRatio) {
    auto p = make_pss();
    const std::vector<SlaveView> all = {slave(0, PeKind::Gpu, 2.6e9),
                                        slave(1, PeKind::SseCore, 1e9)};
    EXPECT_EQ(p->batch_size(all[0], all, 20, 20), 3u);
}

TEST(Fixed, EvenSplitOncePerPe) {
    auto p = make_fixed();
    const std::vector<SlaveView> all = {slave(0, PeKind::SseCore, 1e9),
                                        slave(1, PeKind::SseCore, 1e9),
                                        slave(2, PeKind::SseCore, 1e9)};
    // 10 tasks over 3 PEs: 4 + 3 + 3.
    EXPECT_EQ(p->batch_size(all[0], all, 10, 10), 4u);
    EXPECT_EQ(p->batch_size(all[1], all, 6, 10), 3u);
    EXPECT_EQ(p->batch_size(all[2], all, 3, 10), 3u);
    // Second request gets nothing.
    EXPECT_EQ(p->batch_size(all[0], all, 0, 10), 0u);
}

TEST(WFixed, SplitsByDeclaredPower) {
    auto p = make_wfixed({{PeKind::Gpu, 6.0}, {PeKind::SseCore, 1.0}});
    const std::vector<SlaveView> all = {slave(0, PeKind::Gpu, 0.0),
                                        slave(1, PeKind::SseCore, 0.0),
                                        slave(2, PeKind::SseCore, 0.0)};
    // weights 6,1,1 over 16 tasks -> 12, 2, 2.
    EXPECT_EQ(p->batch_size(all[0], all, 16, 16), 12u);
    EXPECT_EQ(p->batch_size(all[1], all, 4, 16), 2u);
    // Last served PE mops up the remainder.
    EXPECT_EQ(p->batch_size(all[2], all, 2, 16), 2u);
    EXPECT_EQ(p->batch_size(all[0], all, 0, 16), 0u);
}

TEST(WFixed, RejectsNonPositivePower) {
    EXPECT_THROW(make_wfixed({{PeKind::Gpu, 0.0}}), ContractError);
}

// Regression: shares must be computed against the membership at the
// FIRST request. Evaluating the live roster per request mis-split the
// pool whenever a slave registered late (join_delay_s).
TEST(Fixed, LateJoinerDoesNotSkewTheSplit) {
    auto p = make_fixed();
    const std::vector<SlaveView> initial = {slave(0, PeKind::SseCore, 1e9),
                                            slave(1, PeKind::SseCore, 1e9)};
    // 11 tasks over the 2 snapshot PEs: 6 + 5.
    EXPECT_EQ(p->batch_size(initial[0], initial, 11, 11), 6u);

    // PE 2 joins after the split was taken: the live roster grows, but
    // PE 1's share must still be judged against the snapshot of 2.
    const std::vector<SlaveView> grown = {slave(0, PeKind::SseCore, 1e9),
                                          slave(1, PeKind::SseCore, 1e9),
                                          slave(2, PeKind::SseCore, 1e9)};
    EXPECT_EQ(p->batch_size(grown[2], grown, 5, 11), 0u);  // late joiner
    EXPECT_EQ(p->batch_size(grown[1], grown, 5, 11), 5u);
    // Nothing left over, and repeat requests stay empty.
    EXPECT_EQ(p->batch_size(grown[0], grown, 0, 11), 0u);
    EXPECT_EQ(p->batch_size(grown[2], grown, 0, 11), 0u);
}

TEST(WFixed, LateJoinerDoesNotStealTheMopUp) {
    auto p = make_wfixed({{PeKind::Gpu, 6.0}, {PeKind::SseCore, 1.0}});
    const std::vector<SlaveView> initial = {slave(0, PeKind::Gpu, 0.0),
                                            slave(1, PeKind::SseCore, 0.0)};
    // Weights 6,1 over 14 tasks: the GPU gets 12.
    EXPECT_EQ(p->batch_size(initial[0], initial, 14, 14), 12u);

    // A late joiner must neither receive a share nor count towards the
    // "last snapshot slave mops up the remainder" condition.
    const std::vector<SlaveView> grown = {slave(0, PeKind::Gpu, 0.0),
                                          slave(1, PeKind::SseCore, 0.0),
                                          slave(2, PeKind::SseCore, 0.0)};
    EXPECT_EQ(p->batch_size(grown[2], grown, 2, 14), 0u);
    // PE 1 is the last *snapshot* slave served: it mops up everything.
    EXPECT_EQ(p->batch_size(grown[1], grown, 2, 14), 2u);
}

}  // namespace
}  // namespace swh::core
