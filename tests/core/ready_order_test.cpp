#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "core/task_table.hpp"

namespace swh::core {
namespace {

std::vector<Task> sized_tasks() {
    // cells: 10, 50, 30, 50
    return {Task{0, 0, 10}, Task{1, 1, 50}, Task{2, 2, 30},
            Task{3, 3, 50}};
}

TEST(ReadyOrder, FifoHandsOutByTaskId) {
    TaskTable t(sized_tasks(), ReadyOrder::FifoById);
    EXPECT_EQ(t.acquire_ready(0).value(), 0u);
    EXPECT_EQ(t.acquire_ready(0).value(), 1u);
    EXPECT_EQ(t.acquire_ready(0).value(), 2u);
    EXPECT_EQ(t.acquire_ready(0).value(), 3u);
}

TEST(ReadyOrder, LargestFirstHandsOutByCells) {
    TaskTable t(sized_tasks(), ReadyOrder::LargestFirst);
    // 50-cell tasks first (ties by id), then 30, then 10.
    EXPECT_EQ(t.acquire_ready(0).value(), 1u);
    EXPECT_EQ(t.acquire_ready(0).value(), 3u);
    EXPECT_EQ(t.acquire_ready(0).value(), 2u);
    EXPECT_EQ(t.acquire_ready(0).value(), 0u);
}

TEST(ReadyOrder, ReleasedTaskStillJumpsTheQueue) {
    TaskTable t(sized_tasks(), ReadyOrder::LargestFirst);
    const TaskId first = t.acquire_ready(0).value();
    t.release(first, 0);
    // Release puts it at the front regardless of ordering policy (it was
    // already in flight; re-issue promptly).
    EXPECT_EQ(t.acquire_ready(1).value(), first);
}

TEST(ReadyOrder, SchedulerDefaultIsLargestFirst) {
    SchedulerCore sched(sized_tasks(), make_self_scheduling(),
                        SchedulerOptions{});
    sched.register_slave(0, PeKind::Gpu, 0.0);
    EXPECT_EQ(sched.on_work_request(0, 0.0), std::vector<TaskId>{1});
}

TEST(ReadyOrder, SchedulerOptionFlowsThrough) {
    // The non-default order, so the option visibly reaches the table.
    SchedulerOptions options;
    options.ready_order = ReadyOrder::FifoById;
    SchedulerCore sched(sized_tasks(), make_self_scheduling(), options);
    sched.register_slave(0, PeKind::Gpu, 0.0);
    EXPECT_EQ(sched.on_work_request(0, 0.0), std::vector<TaskId>{0});
}

}  // namespace
}  // namespace swh::core
