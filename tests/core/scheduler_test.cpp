#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include "core/results.hpp"
#include "util/error.hpp"

namespace swh::core {
namespace {

std::vector<Task> equal_tasks(std::size_t n, std::uint64_t cells = 6'000) {
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back(Task{static_cast<TaskId>(i),
                             static_cast<std::uint32_t>(i), cells});
    }
    return tasks;
}

SchedulerOptions opts(bool adjust = true) {
    SchedulerOptions o;
    o.workload_adjust = adjust;
    return o;
}

TEST(Scheduler, FirstAllocationOneTaskPerSlave) {
    SchedulerCore s(equal_tasks(10), make_pss(), opts());
    s.register_slave(0, PeKind::Gpu, 0.0);
    s.register_slave(1, PeKind::SseCore, 0.0);
    EXPECT_EQ(s.on_work_request(0, 0.0).size(), 1u);
    EXPECT_EQ(s.on_work_request(1, 0.0).size(), 1u);
    EXPECT_EQ(s.ready_count(), 8u);
}

TEST(Scheduler, PssGrowsBatchWithObservedSpeed) {
    SchedulerCore s(equal_tasks(20), make_pss(), opts());
    s.register_slave(0, PeKind::Gpu, 0.0);
    s.register_slave(1, PeKind::SseCore, 0.0);
    s.on_work_request(0, 0.0);
    s.on_work_request(1, 0.0);
    s.on_progress(0, 0.5, 6'000.0);  // GPU: 6000 cells/s
    s.on_progress(1, 0.5, 1'000.0);  // SSE: 1000 cells/s
    s.on_task_complete(0, 0, 1.0);
    const auto batch = s.on_work_request(0, 1.0);
    EXPECT_EQ(batch.size(), 6u);  // Phi = 6000/1000
}

TEST(Scheduler, UnknownSlaveThrows) {
    SchedulerCore s(equal_tasks(2), make_pss(), opts());
    EXPECT_THROW(s.on_work_request(0, 0.0), ContractError);
    EXPECT_THROW(s.on_progress(0, 0.0, 1.0), ContractError);
}

TEST(Scheduler, DuplicateRegistrationThrows) {
    SchedulerCore s(equal_tasks(2), make_pss(), opts());
    s.register_slave(0, PeKind::Gpu, 0.0);
    EXPECT_THROW(s.register_slave(0, PeKind::Gpu, 0.0), ContractError);
}

TEST(Scheduler, WorkloadAdjustReplicatesLastTask) {
    SchedulerCore s(equal_tasks(2), make_self_scheduling(), opts(true));
    s.register_slave(0, PeKind::Gpu, 0.0);
    s.register_slave(1, PeKind::SseCore, 0.0);
    s.on_work_request(0, 0.0);  // task 0
    s.on_work_request(1, 0.0);  // task 1
    s.on_progress(0, 0.5, 6'000.0);
    s.on_progress(1, 0.5, 1'000.0);
    s.on_task_complete(0, 0, 1.0);
    // No ready tasks remain; task 1 is still executing on the slow PE.
    const auto replica = s.on_work_request(0, 1.0);
    ASSERT_EQ(replica.size(), 1u);
    EXPECT_EQ(replica[0], 1u);
    EXPECT_EQ(s.replicas_issued(), 1u);
    EXPECT_EQ(s.task_executors(1), (std::vector<PeId>{1, 0}));
    // First finisher wins; the loser's completion is discarded.
    EXPECT_TRUE(s.on_task_complete(0, 1, 2.0).accepted);
    EXPECT_FALSE(s.on_task_complete(1, 1, 6.0).accepted);
    EXPECT_EQ(s.completions_discarded(), 1u);
    EXPECT_TRUE(s.all_done());
}

TEST(Scheduler, NoReplicationWhenDisabled) {
    SchedulerCore s(equal_tasks(2), make_self_scheduling(), opts(false));
    s.register_slave(0, PeKind::Gpu, 0.0);
    s.register_slave(1, PeKind::SseCore, 0.0);
    s.on_work_request(0, 0.0);
    s.on_work_request(1, 0.0);
    s.on_task_complete(0, 0, 1.0);
    EXPECT_TRUE(s.on_work_request(0, 1.0).empty());
    EXPECT_EQ(s.replicas_issued(), 0u);
}

TEST(Scheduler, NeverReplicatesToCurrentExecutor) {
    SchedulerCore s(equal_tasks(1), make_self_scheduling(), opts(true));
    s.register_slave(0, PeKind::Gpu, 0.0);
    s.on_work_request(0, 0.0);  // task 0 executing on 0
    // Same PE asking again must not receive its own task as a replica.
    EXPECT_TRUE(s.on_work_request(0, 0.5).empty());
}

TEST(Scheduler, ReplicatesTaskWithLatestExpectedCompletion) {
    // Two executing tasks; PE 1 is much slower, so its task is the
    // replication target.
    SchedulerCore s(equal_tasks(2, 10'000), make_self_scheduling(),
                    opts(true));
    s.register_slave(0, PeKind::SseCore, 0.0);
    s.register_slave(1, PeKind::SseCore, 0.0);
    s.register_slave(2, PeKind::Gpu, 0.0);
    s.on_work_request(0, 0.0);  // task 0
    s.on_work_request(1, 0.0);  // task 1
    s.on_progress(0, 0.5, 10'000.0);  // finishes ~t=1
    s.on_progress(1, 0.5, 100.0);     // finishes ~t=100
    const auto replica = s.on_work_request(2, 0.6);
    ASSERT_EQ(replica.size(), 1u);
    EXPECT_EQ(replica[0], 1u);
}

TEST(Scheduler, ReplicateOnlyIfFasterGate) {
    SchedulerOptions o = opts(true);
    o.replicate_only_if_faster = true;
    SchedulerCore s(equal_tasks(2, 10'000), make_self_scheduling(), o);
    s.register_slave(0, PeKind::SseCore, 0.0);
    s.register_slave(1, PeKind::SseCore, 0.0);
    s.register_slave(2, PeKind::SseCore, 0.0);
    s.on_work_request(0, 0.0);
    s.on_work_request(1, 0.0);
    s.on_progress(0, 0.5, 1'000.0);
    s.on_progress(1, 0.5, 1'000.0);
    s.on_progress(2, 0.5, 1'000.0);
    // PE 2 is equally fast and task 1 is already half done on PE 1 —
    // restarting from scratch cannot beat the current owner.
    EXPECT_TRUE(s.on_work_request(2, 5.0).empty());
}

TEST(Scheduler, DeregisterReturnsTasksToReady) {
    SchedulerCore s(equal_tasks(3), make_chunked_self_scheduling(3),
                    opts(true));
    s.register_slave(0, PeKind::SseCore, 0.0);
    s.register_slave(1, PeKind::SseCore, 0.0);
    EXPECT_EQ(s.on_work_request(0, 0.0).size(), 3u);
    s.deregister_slave(0, 1.0);
    EXPECT_EQ(s.ready_count(), 3u);
    EXPECT_FALSE(s.is_registered(0));
    // The surviving slave can pick them all up.
    EXPECT_EQ(s.on_work_request(1, 1.0).size(), 3u);
}

TEST(Scheduler, FixedPolicyStarvationValve) {
    // Fixed hands everything out in round one; if tasks come back (node
    // leave) a later request must still obtain them.
    SchedulerCore s(equal_tasks(4), make_fixed(), opts(false));
    s.register_slave(0, PeKind::SseCore, 0.0);
    s.register_slave(1, PeKind::SseCore, 0.0);
    EXPECT_EQ(s.on_work_request(0, 0.0).size(), 2u);
    EXPECT_EQ(s.on_work_request(1, 0.0).size(), 2u);
    s.deregister_slave(0, 1.0);  // its 2 tasks return to ready
    EXPECT_EQ(s.ready_count(), 2u);
    s.on_task_complete(1, 2, 2.0);
    s.on_task_complete(1, 3, 3.0);
    // Fixed would answer 0, but the valve gives one task per request.
    EXPECT_EQ(s.on_work_request(1, 3.0).size(), 1u);
}

TEST(Scheduler, QueueTracking) {
    SchedulerCore s(equal_tasks(5), make_chunked_self_scheduling(3),
                    opts(true));
    s.register_slave(0, PeKind::SseCore, 0.0);
    const auto batch = s.on_work_request(0, 0.0);
    EXPECT_EQ(s.queue_of(0), batch);
    s.on_task_complete(0, batch[0], 1.0);
    EXPECT_EQ(s.queue_of(0).size(), 2u);
}

TEST(Scheduler, RateEstimateReflectsHistory) {
    SchedulerCore s(equal_tasks(2), make_pss(), opts());
    s.register_slave(0, PeKind::SseCore, 0.0);
    EXPECT_EQ(s.rate_estimate(0), 0.0);
    s.on_progress(0, 0.5, 2'000.0);
    EXPECT_DOUBLE_EQ(s.rate_estimate(0), 2'000.0);
}

// The paper's Fig. 5 worked example at the scheduler level: 20 tasks of
// 1 s (GPU) / 6 s (SSE); with the adjustment mechanism the GPU re-runs
// the straggler task t20 and the application completes at 14 s instead
// of 18 s. Timing is driven by tests/sim (the DES); here we check the
// decision sequence.
TEST(Scheduler, PaperFigure5DecisionSequence) {
    SchedulerCore s(equal_tasks(20, 6'000), make_pss(), opts(true));
    s.register_slave(0, PeKind::Gpu, 0.0);       // 6000 cells/s
    for (PeId pe = 1; pe <= 3; ++pe) s.register_slave(pe, PeKind::SseCore, 0.0);

    // t=0: one task each.
    EXPECT_EQ(s.on_work_request(0, 0.0), std::vector<TaskId>{0});
    EXPECT_EQ(s.on_work_request(1, 0.0), std::vector<TaskId>{1});
    EXPECT_EQ(s.on_work_request(2, 0.0), std::vector<TaskId>{2});
    EXPECT_EQ(s.on_work_request(3, 0.0), std::vector<TaskId>{3});

    // Early notifications establish the 6:1 ratio.
    s.on_progress(0, 0.5, 6'000.0);
    for (PeId pe = 1; pe <= 3; ++pe) s.on_progress(pe, 0.5, 1'000.0);

    // t=1: GPU finishes and gets 6 tasks (t5..t10 in paper numbering).
    s.on_task_complete(0, 0, 1.0);
    EXPECT_EQ(s.on_work_request(0, 1.0),
              (std::vector<TaskId>{4, 5, 6, 7, 8, 9}));

    // t=6: the SSEs finish and get one task each.
    for (PeId pe = 1; pe <= 3; ++pe) {
        s.on_progress(pe, 6.0, 1'000.0);
        s.on_task_complete(pe, pe, 6.0);
        EXPECT_EQ(s.on_work_request(pe, 6.0).size(), 1u);
    }

    // t=7: GPU finishes its 6 and gets 6 more.
    s.on_progress(0, 7.0, 6'000.0);
    for (TaskId t = 4; t <= 9; ++t) s.on_task_complete(0, t, 7.0);
    EXPECT_EQ(s.on_work_request(0, 7.0),
              (std::vector<TaskId>{13, 14, 15, 16, 17, 18}));

    // t=12: SSEs finish; only one ready task remains (19). SSE1 takes it.
    for (PeId pe = 1; pe <= 3; ++pe) {
        s.on_progress(pe, 12.0, 1'000.0);
        s.on_task_complete(pe, pe + 9, 12.0);
    }
    EXPECT_EQ(s.on_work_request(1, 12.0), std::vector<TaskId>{19});

    // t=13: GPU drains; the adjustment hands it the executing task 19.
    for (TaskId t = 13; t <= 18; ++t) s.on_task_complete(0, t, 13.0);
    EXPECT_EQ(s.on_work_request(0, 13.0), std::vector<TaskId>{19});
    EXPECT_EQ(s.replicas_issued(), 1u);

    // t=14: GPU wins the race; SSE1's later completion is discarded.
    EXPECT_TRUE(s.on_task_complete(0, 19, 14.0).accepted);
    EXPECT_TRUE(s.all_done());
    EXPECT_FALSE(s.on_task_complete(1, 19, 18.0).accepted);
}

TEST(Scheduler, FailedTaskWithRetryReturnsToReadyFront) {
    SchedulerCore s(equal_tasks(3), make_self_scheduling(), opts());
    s.register_slave(0, PeKind::SseCore, 0.0);
    ASSERT_EQ(s.on_work_request(0, 0.0), std::vector<TaskId>{0});

    const auto out = s.on_task_failed(0, 0, 1.0, /*allow_retry=*/true);
    EXPECT_FALSE(out.stale);
    EXPECT_TRUE(out.requeued);
    EXPECT_FALSE(out.abandoned);
    EXPECT_EQ(s.tasks_failed(), 1u);
    EXPECT_EQ(s.task_state(0), TaskState::Ready);
    EXPECT_TRUE(s.queue_of(0).empty());
    // Requeued at the ready front: the next request picks it up first.
    EXPECT_EQ(s.on_work_request(0, 2.0), std::vector<TaskId>{0});
}

TEST(Scheduler, FailedTaskWithoutRetryIsAbandoned) {
    SchedulerCore s(equal_tasks(2), make_self_scheduling(), opts());
    s.register_slave(0, PeKind::SseCore, 0.0);
    ASSERT_EQ(s.on_work_request(0, 0.0), std::vector<TaskId>{0});

    const auto out = s.on_task_failed(0, 0, 1.0, /*allow_retry=*/false);
    EXPECT_TRUE(out.abandoned);
    EXPECT_FALSE(out.requeued);
    EXPECT_EQ(s.tasks_abandoned(), 1u);
    EXPECT_EQ(s.task_state(0), TaskState::Finished);
    EXPECT_TRUE(s.task_abandoned(0));

    // The other task completes normally; the run still settles.
    ASSERT_EQ(s.on_work_request(0, 2.0), std::vector<TaskId>{1});
    EXPECT_TRUE(s.on_task_complete(0, 1, 3.0).accepted);
    EXPECT_TRUE(s.all_done());
}

TEST(Scheduler, AbandonWithLiveReplicaLetsTheReplicaWin) {
    SchedulerCore s(equal_tasks(1), make_self_scheduling(), opts(true));
    s.register_slave(0, PeKind::SseCore, 0.0);
    s.register_slave(1, PeKind::SseCore, 0.0);
    ASSERT_EQ(s.on_work_request(0, 0.0), std::vector<TaskId>{0});
    s.on_progress(0, 0.5, 1'000.0);
    s.on_progress(1, 0.5, 1'000.0);
    ASSERT_EQ(s.on_work_request(1, 0.5), std::vector<TaskId>{0});  // replica

    // PE 0 exhausts its retry budget, but PE 1 still runs the task: the
    // abandonment must not settle it.
    const auto out = s.on_task_failed(0, 0, 1.0, /*allow_retry=*/false);
    EXPECT_FALSE(out.abandoned);
    EXPECT_EQ(s.task_state(0), TaskState::Executing);
    EXPECT_FALSE(s.all_done());
    EXPECT_TRUE(s.on_task_complete(1, 0, 2.0).accepted);
    EXPECT_FALSE(s.task_abandoned(0));
    EXPECT_TRUE(s.all_done());
}

TEST(Scheduler, StaleFailureReportsAreIgnored) {
    SchedulerCore s(equal_tasks(2), make_self_scheduling(), opts());
    s.register_slave(0, PeKind::SseCore, 0.0);
    s.register_slave(1, PeKind::SseCore, 0.0);
    ASSERT_EQ(s.on_work_request(0, 0.0), std::vector<TaskId>{0});

    // Not the executor / not executing / unregistered: all stale no-ops.
    EXPECT_TRUE(s.on_task_failed(1, 0, 1.0, true).stale);
    EXPECT_TRUE(s.on_task_failed(0, 1, 1.0, true).stale);
    s.on_task_complete(0, 0, 2.0);
    EXPECT_TRUE(s.on_task_failed(0, 0, 3.0, true).stale);
    s.deregister_slave(1, 3.0);
    EXPECT_TRUE(s.on_task_failed(1, 1, 3.0, true).stale);
    EXPECT_EQ(s.tasks_failed(), 0u);
}

}  // namespace
}  // namespace swh::core
