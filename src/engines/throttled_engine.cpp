#include "engines/throttled_engine.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace swh::engines {

namespace {

/// Longest uninterrupted pacing sleep: how late a cancelled task (a
/// losing replica, or the end-of-run Shutdown) notices it should stop.
constexpr double kPaceSliceS = 0.002;

/// Forwards progress to the slave's observer, sleeping first so that the
/// cumulative cell count never runs ahead of the target rate.
class PacingObserver final : public ExecutionObserver {
public:
    PacingObserver(ExecutionObserver* downstream, double cells_per_second,
                   double overhead_s)
        : downstream_(downstream),
          rate_(cells_per_second),
          overhead_s_(overhead_s) {}

    void on_cells(std::uint64_t cells_delta) override {
        cells_ += cells_delta;
        pace();
        if (downstream_ != nullptr) downstream_->on_cells(cells_delta);
    }

    bool cancelled() const override {
        return downstream_ != nullptr && downstream_->cancelled();
    }

    obs::TraceLane* trace_lane() const override {
        return downstream_ != nullptr ? downstream_->trace_lane() : nullptr;
    }

    /// Final pace so the total task duration matches the model even if
    /// the inner engine reported progress coarsely. A no-op once the
    /// task is cancelled.
    void finish() { pace(); }

private:
    /// Sleeps until the cells so far are due at the target rate, in
    /// short slices, and stops as soon as the task is cancelled: a
    /// whole progress grain can be tens of milliseconds of pacing.
    void pace() {
        const double target =
            overhead_s_ + static_cast<double>(cells_) / rate_;
        for (double ahead = target - timer_.seconds();
             ahead > 0.0 && !cancelled(); ahead = target - timer_.seconds()) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(std::min(ahead, kPaceSliceS)));
        }
    }

    ExecutionObserver* downstream_;
    double rate_;
    double overhead_s_;
    std::uint64_t cells_ = 0;
    Timer timer_;
};

}  // namespace

ThrottledEngine::ThrottledEngine(
    std::unique_ptr<ComputeEngine> inner,
    std::function<double(const db::Database&)> target_gcups,
    double overhead_s, std::string name)
    : inner_(std::move(inner)),
      target_gcups_(std::move(target_gcups)),
      overhead_s_(overhead_s),
      name_(std::move(name)) {
    SWH_REQUIRE(inner_ != nullptr, "throttled engine needs an inner engine");
    SWH_REQUIRE(target_gcups_ != nullptr, "throttle needs a rate function");
    SWH_REQUIRE(overhead_s_ >= 0.0, "overhead must be non-negative");
}

ThrottledEngine::ThrottledEngine(std::unique_ptr<ComputeEngine> inner,
                                 double gcups, double overhead_s,
                                 std::string name)
    : ThrottledEngine(
          std::move(inner),
          [gcups](const db::Database&) { return gcups; }, overhead_s,
          std::move(name)) {
    SWH_REQUIRE(gcups > 0.0, "target rate must be positive");
}

core::TaskResult ThrottledEngine::execute(const align::Sequence& query,
                                          std::uint32_t query_index,
                                          core::TaskId task,
                                          const db::Database& database,
                                          ExecutionObserver* observer) {
    const double gcups = target_gcups_(database);
    SWH_REQUIRE(gcups > 0.0, "target rate must be positive");
    PacingObserver pacing(observer, gcups * 1e9, overhead_s_);
    core::TaskResult result =
        inner_->execute(query, query_index, task, database, &pacing);
    // Account for cells the inner engine did not report through on_cells
    // (it reports at progress_grain granularity).
    pacing.finish();
    return result;
}

}  // namespace swh::engines
