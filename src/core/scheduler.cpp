#include "core/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "util/check.hpp"

namespace swh::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

SchedulerCore::SchedulerCore(std::vector<Task> tasks,
                             std::unique_ptr<AllocationPolicy> policy,
                             SchedulerOptions options)
    : table_(std::move(tasks), options.ready_order),
      policy_(std::move(policy)),
      options_(options) {
    SWH_CHECK(policy_ != nullptr, "scheduler needs a policy");
    SWH_CHECK_GT(options_.omega, std::size_t{0}, "omega must be positive");
}

void SchedulerCore::set_observer(SchedObserver* observer) {
    const swh::LockGuard lock(mu_);
    observer_ = observer;
}

SchedulerCore::Slave& SchedulerCore::slave(PeId pe) {
    const auto it = slaves_.find(pe);
    SWH_CHECK(it != slaves_.end(), "unknown slave PE");
    return it->second;
}

const SchedulerCore::Slave& SchedulerCore::slave(PeId pe) const {
    const auto it = slaves_.find(pe);
    SWH_CHECK(it != slaves_.end(), "unknown slave PE");
    return it->second;
}

void SchedulerCore::register_slave(PeId pe, PeKind kind, double now) {
    const swh::LockGuard lock(mu_);
    SWH_CHECK(slaves_.find(pe) == slaves_.end(), "slave already registered");
    slaves_.emplace(pe,
                    Slave{kind, ProgressHistory(options_.omega), {}, 0.0});
    if (observer_ != nullptr) observer_->on_slave_registered(pe, kind, now);
    SWH_AUDIT_SWEEP(check_invariants_locked());
}

void SchedulerCore::deregister_slave(PeId pe, double now) {
    const swh::LockGuard lock(mu_);
    const check::ScopedContext ctx(pe, -1);
    Slave& s = slave(pe);
    for (const TaskId t : s.queue) {
        table_.release(t, pe);
    }
    slaves_.erase(pe);
    if (observer_ != nullptr) observer_->on_slave_deregistered(pe, now);
    SWH_AUDIT_SWEEP(check_invariants_locked());
}

bool SchedulerCore::is_registered(PeId pe) const {
    const swh::LockGuard lock(mu_);
    return slaves_.find(pe) != slaves_.end();
}

std::vector<SlaveView> SchedulerCore::views() const {
    std::vector<SlaveView> out;
    out.reserve(slaves_.size());
    for (const auto& [id, s] : slaves_) {
        out.push_back(SlaveView{id, s.kind, s.history.rate(),
                                s.history.has_history(), s.queue.size()});
    }
    return out;
}

double SchedulerCore::effective_rate(const Slave& s) const {
    if (s.history.has_history() && s.history.rate() > 0.0)
        return s.history.rate();
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& [id, other] : slaves_) {
        if (other.history.has_history() && other.history.rate() > 0.0) {
            sum += other.history.rate();
            ++n;
        }
    }
    return n > 0 ? sum / static_cast<double>(n) : 1.0;
}

double SchedulerCore::estimated_completion(PeId q, TaskId t,
                                           double now) const {
    const Slave& s = slave(q);
    const double rate = effective_rate(s);
    if (rate <= 0.0) return kInf;
    double work = 0.0;  // cells still to process before t finishes on q
    bool found = false;
    for (std::size_t i = 0; i < s.queue.size(); ++i) {
        const TaskId id = s.queue[i];
        double cells = static_cast<double>(table_.task(id).cells);
        if (i == 0) {
            // The front task has been running since front_started.
            const double done = (now - s.front_started) * rate;
            cells = std::max(0.0, cells - done);
        }
        work += cells;
        if (id == t) {
            found = true;
            break;
        }
    }
    if (!found) return kInf;
    return now + work / rate;
}

std::optional<TaskId> SchedulerCore::pick_replica(PeId pe,
                                                  double now) const {
    // Among tasks still executing elsewhere that this PE has not already
    // been given, take the one expected to finish last — the task most
    // likely to stall the application tail (paper SS IV-A.3).
    std::optional<TaskId> best;
    double best_ect = -kInf;
    for (const TaskId t : table_.executing_tasks()) {
        if (table_.is_executor(t, pe)) continue;
        double ect = kInf;
        for (const PeId q : table_.executors(t)) {
            ect = std::min(ect, estimated_completion(q, t, now));
        }
        if (options_.replicate_only_if_faster) {
            const Slave& me = slave(pe);
            const double my_rate = effective_rate(me);
            const double my_ect =
                my_rate > 0.0
                    ? now + static_cast<double>(table_.task(t).cells) / my_rate
                    : kInf;
            if (my_ect >= ect) continue;
        }
        if (ect > best_ect) {
            best_ect = ect;
            best = t;
        }
    }
    return best;
}

std::vector<TaskId> SchedulerCore::on_work_request(PeId pe, double now) {
    const swh::LockGuard lock(mu_);
    const check::ScopedContext ctx(pe, -1);
    Slave& s = slave(pe);
    std::vector<TaskId> assigned;

    const std::vector<SlaveView> all = views();
    const SlaveView* me = nullptr;
    for (const SlaveView& v : all) {
        if (v.id == pe) me = &v;
    }
    SWH_CHECK(me != nullptr, "requester missing from views");

    std::size_t batch = policy_->batch_size(
        *me, all, table_.ready_count(), table_.total());
    // Safety valve: static-split policies (Fixed/WFixed) allocate nothing
    // on a second request, but tasks can return to Ready when a node
    // leaves. A starved request must not orphan them.
    if (batch == 0 && table_.ready_count() > 0) batch = 1;
    for (std::size_t i = 0; i < batch; ++i) {
        const std::optional<TaskId> t = table_.acquire_ready(pe);
        if (!t) break;
        assigned.push_back(*t);
    }

    // Workload adjustment: no ready task was available for this request,
    // so hand out a task that is still executing on a (slower) PE.
    bool replica = false;
    if (assigned.empty() && options_.workload_adjust &&
        table_.ready_count() == 0 && !table_.all_finished()) {
        if (const std::optional<TaskId> t = pick_replica(pe, now)) {
            table_.add_replica(*t, pe);
            assigned.push_back(*t);
            ++replicas_issued_;
            replica = true;
        }
    }

    if (!assigned.empty()) {
        if (s.queue.empty()) s.front_started = now;
        for (const TaskId t : assigned) s.queue.push_back(t);
        if (observer_ != nullptr) {
            observer_->on_package_sized(pe, assigned.size(), replica, now);
            for (const TaskId t : assigned) {
                if (replica) {
                    observer_->on_replica_issued(pe, t, now);
                } else {
                    observer_->on_task_assigned(pe, t, now);
                }
            }
        }
    }
    SWH_AUDIT_SWEEP(check_invariants_locked());
    return assigned;
}

void SchedulerCore::on_progress(PeId pe, double now,
                                double cells_per_second) {
    const swh::LockGuard lock(mu_);
    const check::ScopedContext ctx(pe, -1);
    Slave& s = slave(pe);
    const double prior = s.history.rate();
    s.history.record(cells_per_second);
    if (observer_ != nullptr) {
        observer_->on_progress(pe, now, cells_per_second, prior);
    }
}

void SchedulerCore::remove_from_queue(PeId pe, TaskId task, double now) {
    Slave& s = slave(pe);
    const auto it = std::find(s.queue.begin(), s.queue.end(), task);
    if (it == s.queue.end()) return;
    const bool was_front = it == s.queue.begin();
    s.queue.erase(it);
    if (was_front) s.front_started = now;
}

SchedulerCore::CompletionResult SchedulerCore::on_task_complete(
    PeId pe, TaskId task, double now) {
    const swh::LockGuard lock(mu_);
    const check::ScopedContext ctx(pe, task);
    CompletionResult result;
    result.accepted = table_.complete(task, pe);
    if (!result.accepted) ++completions_discarded_;
    remove_from_queue(pe, task, now);
    if (observer_ != nullptr) {
        observer_->on_task_completed(pe, task, result.accepted, now);
    }
    SWH_AUDIT_SWEEP(check_invariants_locked());
    return result;
}

SchedulerCore::FailureOutcome SchedulerCore::on_task_failed(
    PeId pe, TaskId task, double now, bool allow_retry) {
    const swh::LockGuard lock(mu_);
    const check::ScopedContext ctx(pe, task);
    FailureOutcome out;
    // Stale report: the PE was deregistered (presumed dead, or left) or
    // no longer holds the task (the pairing was already settled, e.g. a
    // replica won). Ignore it.
    if (slaves_.find(pe) == slaves_.end() ||
        table_.state(task) != TaskState::Executing ||
        !table_.is_executor(task, pe)) {
        out.stale = true;
        return out;
    }
    ++tasks_failed_;
    remove_from_queue(pe, task, now);
    if (allow_retry) {
        // Back to the ready queue's front (only if no replica is still
        // running — release() keeps the task Executing otherwise).
        table_.release(task, pe);
        out.requeued = table_.state(task) == TaskState::Ready;
    } else {
        out.abandoned = table_.abandon(task, pe);
        if (out.abandoned) ++tasks_abandoned_;
    }
    if (observer_ != nullptr) {
        observer_->on_task_failed(pe, task, out.abandoned, now);
    }
    SWH_AUDIT_SWEEP(check_invariants_locked());
    return out;
}

bool SchedulerCore::all_done() const {
    const swh::LockGuard lock(mu_);
    return table_.all_finished();
}

std::size_t SchedulerCore::total_tasks() const {
    const swh::LockGuard lock(mu_);
    return table_.total();
}

std::size_t SchedulerCore::ready_count() const {
    const swh::LockGuard lock(mu_);
    return table_.ready_count();
}

std::size_t SchedulerCore::executing_count() const {
    const swh::LockGuard lock(mu_);
    return table_.executing_count();
}

std::size_t SchedulerCore::finished_count() const {
    const swh::LockGuard lock(mu_);
    return table_.finished_count();
}

Task SchedulerCore::task(TaskId id) const {
    const swh::LockGuard lock(mu_);
    return table_.task(id);
}

TaskState SchedulerCore::task_state(TaskId id) const {
    const swh::LockGuard lock(mu_);
    return table_.state(id);
}

PeId SchedulerCore::task_winner(TaskId id) const {
    const swh::LockGuard lock(mu_);
    return table_.winner(id);
}

bool SchedulerCore::task_abandoned(TaskId id) const {
    const swh::LockGuard lock(mu_);
    return table_.abandoned(id);
}

std::vector<PeId> SchedulerCore::task_executors(TaskId id) const {
    const swh::LockGuard lock(mu_);
    return table_.executors(id);
}

double SchedulerCore::rate_estimate(PeId pe) const {
    const swh::LockGuard lock(mu_);
    return slave(pe).history.rate();
}

std::vector<TaskId> SchedulerCore::queue_of(PeId pe) const {
    const swh::LockGuard lock(mu_);
    const Slave& s = slave(pe);
    return {s.queue.begin(), s.queue.end()};
}

std::size_t SchedulerCore::replicas_issued() const {
    const swh::LockGuard lock(mu_);
    return replicas_issued_;
}

std::size_t SchedulerCore::completions_discarded() const {
    const swh::LockGuard lock(mu_);
    return completions_discarded_;
}

std::size_t SchedulerCore::tasks_failed() const {
    const swh::LockGuard lock(mu_);
    return tasks_failed_;
}

std::size_t SchedulerCore::tasks_abandoned() const {
    const swh::LockGuard lock(mu_);
    return tasks_abandoned_;
}

void SchedulerCore::check_invariants() const {
    const swh::LockGuard lock(mu_);
    check_invariants_locked();
}

void SchedulerCore::check_invariants_locked() const {
    table_.check_invariants();
    for (const auto& [pe, s] : slaves_) {
        const std::set<TaskId> uniq(s.queue.begin(), s.queue.end());
        SWH_CHECK_EQ(uniq.size(), s.queue.size(),
                     "duplicate task in a slave queue");
        for (const TaskId t : s.queue) {
            const check::ScopedContext ctx(pe, t);
            SWH_CHECK(table_.is_executor(t, pe),
                      "queued task not held by its slave");
            SWH_CHECK(table_.state(t) != TaskState::Ready,
                      "a queued task cannot be Ready");
        }
    }
}

}  // namespace swh::core
