#include "core/task_table.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace swh::core {
namespace {

std::vector<Task> make_n(std::size_t n) {
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back(Task{static_cast<TaskId>(i),
                             static_cast<std::uint32_t>(i), 100});
    }
    return tasks;
}

TEST(TaskTable, InitialState) {
    TaskTable t(make_n(3));
    EXPECT_EQ(t.total(), 3u);
    EXPECT_EQ(t.ready_count(), 3u);
    EXPECT_EQ(t.executing_count(), 0u);
    EXPECT_EQ(t.finished_count(), 0u);
    EXPECT_FALSE(t.all_finished());
    EXPECT_EQ(t.state(0), TaskState::Ready);
}

TEST(TaskTable, RejectsNonDenseIds) {
    std::vector<Task> tasks = {Task{5, 0, 1}};
    EXPECT_THROW(TaskTable{tasks}, ContractError);
}

TEST(TaskTable, AcquireIsFifo) {
    TaskTable t(make_n(3), ReadyOrder::FifoById);
    EXPECT_EQ(t.acquire_ready(0).value(), 0u);
    EXPECT_EQ(t.acquire_ready(1).value(), 1u);
    EXPECT_EQ(t.state(0), TaskState::Executing);
    EXPECT_EQ(t.executors(0), std::vector<PeId>{0});
    EXPECT_EQ(t.ready_count(), 1u);
    EXPECT_EQ(t.executing_count(), 2u);
}

TEST(TaskTable, AcquireExhausts) {
    TaskTable t(make_n(1));
    EXPECT_TRUE(t.acquire_ready(0).has_value());
    EXPECT_FALSE(t.acquire_ready(1).has_value());
}

TEST(TaskTable, CompleteFirstWins) {
    TaskTable t(make_n(1));
    t.acquire_ready(0);
    t.add_replica(0, 1);
    EXPECT_EQ(t.executors(0), (std::vector<PeId>{0, 1}));
    EXPECT_TRUE(t.complete(0, 1));   // replica wins
    EXPECT_FALSE(t.complete(0, 0));  // original loses
    EXPECT_EQ(t.winner(0), 1u);
    EXPECT_TRUE(t.all_finished());
}

TEST(TaskTable, ReplicaRules) {
    TaskTable t(make_n(2));
    EXPECT_THROW(t.add_replica(0, 1), ContractError);  // still ready
    t.acquire_ready(0);
    EXPECT_THROW(t.add_replica(0, 0), ContractError);  // same PE
    t.add_replica(0, 1);
    EXPECT_TRUE(t.is_executor(0, 1));
    t.complete(0, 0);
    EXPECT_THROW(t.add_replica(0, 2), ContractError);  // finished
}

TEST(TaskTable, CompleteFromNonExecutorThrows) {
    TaskTable t(make_n(1));
    t.acquire_ready(0);
    EXPECT_THROW(t.complete(0, 9), ContractError);
}

TEST(TaskTable, ReleaseReturnsSoleTaskToReadyFront) {
    TaskTable t(make_n(2));
    t.acquire_ready(0);  // task 0
    t.release(0, 0);
    EXPECT_EQ(t.state(0), TaskState::Ready);
    EXPECT_EQ(t.ready_count(), 2u);
    // Released task re-issues before the untouched task 1.
    EXPECT_EQ(t.acquire_ready(1).value(), 0u);
}

TEST(TaskTable, ReleaseKeepsTaskExecutingIfReplicated) {
    TaskTable t(make_n(1));
    t.acquire_ready(0);
    t.add_replica(0, 1);
    t.release(0, 0);
    EXPECT_EQ(t.state(0), TaskState::Executing);
    EXPECT_EQ(t.executors(0), std::vector<PeId>{1});
}

TEST(TaskTable, ExecutingTasksSnapshot) {
    TaskTable t(make_n(3));
    t.acquire_ready(0);
    t.acquire_ready(1);
    t.complete(0, 0);
    EXPECT_EQ(t.executing_tasks(), std::vector<TaskId>{1});
}

TEST(TaskTable, StaleReadyQueueEntriesSkipped) {
    // release() pushes to the queue front; acquire later must skip
    // anything no longer Ready.
    TaskTable t(make_n(2));
    t.acquire_ready(0);          // 0 executing
    t.release(0, 0);             // 0 ready again (front)
    t.acquire_ready(1);          // takes 0
    EXPECT_EQ(t.acquire_ready(2).value(), 1u);
    EXPECT_FALSE(t.acquire_ready(3).has_value());
}

}  // namespace
}  // namespace swh::core
