// Randomised stress test for SchedulerCore: a synthetic driver delivers
// arbitrary (but protocol-legal) interleavings of work requests,
// progress notifications, completions, joins and leaves, and checks the
// global invariants that must survive any schedule:
//   * the run always terminates with every task Finished;
//   * each task is accepted exactly once, by a PE that was executing it;
//   * table counters stay consistent throughout;
//   * a PE never holds the same task twice;
//   * replicas only ever duplicate Executing tasks.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "core/results.hpp"
#include "core/scheduler.hpp"
#include "util/rng.hpp"

namespace swh::core {
namespace {

struct FuzzParams {
    std::uint64_t seed;
    std::size_t tasks;
    std::size_t slaves;
    bool adjust;
    int policy;  // 0 SS, 1 PSS, 2 chunked, 3 fixed, 4 wfixed
};

std::unique_ptr<AllocationPolicy> make_policy(int which) {
    switch (which) {
        case 0:
            return make_self_scheduling();
        case 1:
            return make_pss();
        case 2:
            return make_chunked_self_scheduling(3);
        case 3:
            return make_fixed();
        default:
            return make_wfixed(
                {{PeKind::Gpu, 8.0}, {PeKind::SseCore, 1.0}});
    }
}

class SchedulerFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(SchedulerFuzzTest, InvariantsHoldUnderRandomSchedules) {
    const FuzzParams fp = GetParam();
    Rng rng(fp.seed);

    std::vector<Task> tasks;
    for (std::size_t i = 0; i < fp.tasks; ++i) {
        tasks.push_back(Task{static_cast<TaskId>(i),
                             static_cast<std::uint32_t>(i),
                             1'000 + rng.below(100'000)});
    }
    SchedulerOptions options;
    options.workload_adjust = fp.adjust;
    options.omega = 1 + rng.below(16);
    SchedulerCore sched(tasks, make_policy(fp.policy), options);

    struct SlaveMirror {
        std::deque<TaskId> queue;
        bool active = true;
    };
    std::map<PeId, SlaveMirror> slaves;
    for (PeId pe = 0; pe < fp.slaves; ++pe) {
        sched.register_slave(pe, pe % 3 == 0 ? PeKind::Gpu : PeKind::SseCore,
                             0.0);
        slaves[pe] = SlaveMirror{};
    }
    PeId next_pe = static_cast<PeId>(fp.slaves);

    std::map<TaskId, PeId> winners;
    std::set<TaskId> accepted;
    double now = 0.0;
    std::size_t idle_rounds = 0;

    const auto check_counts = [&] {
        ASSERT_EQ(sched.ready_count() + sched.executing_count() +
                      sched.finished_count(),
                  sched.total_tasks());
        // Full structural sweep (what SWH_AUDIT runs after every event).
        ASSERT_NO_THROW(sched.check_invariants());
    };

    while (!sched.all_done()) {
        now += 0.1;
        // Pick a random live slave.
        std::vector<PeId> live;
        for (const auto& [pe, m] : slaves) {
            if (m.active) live.push_back(pe);
        }
        ASSERT_FALSE(live.empty()) << "all slaves left with work pending";
        const PeId pe = live[rng.below(live.size())];
        SlaveMirror& mirror = slaves[pe];

        const std::uint64_t dice = rng.below(100);
        if (mirror.queue.empty() || dice < 20) {
            // Work request (idle slaves must ask; busy ones may too —
            // the real runtime doesn't, but the core must tolerate it).
            if (mirror.queue.empty()) {
                const std::vector<TaskId> got =
                    sched.on_work_request(pe, now);
                for (const TaskId t : got) {
                    // Never the same task twice for one PE.
                    ASSERT_EQ(std::count(mirror.queue.begin(),
                                         mirror.queue.end(), t),
                              0);
                    ASSERT_NE(sched.task_state(t), TaskState::Ready);
                    mirror.queue.push_back(t);
                }
                if (got.empty()) {
                    ++idle_rounds;
                    ASSERT_LT(idle_rounds, 100'000u) << "livelock";
                } else {
                    idle_rounds = 0;
                }
            }
        } else if (dice < 70) {
            // Complete the front task.
            const TaskId t = mirror.queue.front();
            mirror.queue.pop_front();
            const auto result = sched.on_task_complete(pe, t, now);
            if (result.accepted) {
                ASSERT_EQ(accepted.count(t), 0u)
                    << "task accepted twice";
                accepted.insert(t);
                winners[t] = pe;
                ASSERT_EQ(sched.task_winner(t), pe);
            }
        } else if (dice < 90) {
            sched.on_progress(pe, now, 1'000.0 + rng.uniform() * 1e6);
        } else if (dice < 95 && live.size() > 1) {
            // Leave: abandon everything.
            sched.deregister_slave(pe, now);
            mirror.active = false;
            mirror.queue.clear();
        } else {
            // Join a fresh slave.
            sched.register_slave(next_pe, PeKind::SseCore, now);
            slaves[next_pe] = SlaveMirror{};
            ++next_pe;
        }
        check_counts();
    }

    EXPECT_EQ(accepted.size(), fp.tasks);
    EXPECT_EQ(sched.finished_count(), fp.tasks);
    for (const auto& [t, pe] : winners) {
        EXPECT_EQ(sched.task_winner(t), pe);
    }
}

std::vector<FuzzParams> fuzz_matrix() {
    std::vector<FuzzParams> out;
    // Each (adjust, policy) cell has a fixed seed, so instance names
    // stay stable.
    for (const bool adjust : {false, true}) {
        for (int policy = 0; policy < 5; ++policy) {
            out.push_back(FuzzParams{
                static_cast<std::uint64_t>(1000 + (adjust ? 10 : 0) + policy),
                25, 4, adjust, policy});
        }
    }
    // A few bigger instances on the paper's configuration.
    for (std::uint64_t seed = 1020; seed < 1025; ++seed) {
        out.push_back(FuzzParams{seed, 100, 8, true, 1});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(Random, SchedulerFuzzTest,
                         ::testing::ValuesIn(fuzz_matrix()),
                         [](const auto& info) {
                             const FuzzParams& p = info.param;
                             return "seed" + std::to_string(p.seed) +
                                    "_p" + std::to_string(p.policy) +
                                    (p.adjust ? "_adj" : "_noadj") +
                                    // No replica cancellation; the
                                    // suffix keeps the names stable.
                                    "_nocan";
                         });

}  // namespace
}  // namespace swh::core
