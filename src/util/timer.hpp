#pragma once

#include <chrono>

namespace swh {

/// Monotonic wall-clock stopwatch.
class Timer {
public:
    Timer() : start_(Clock::now()) {}

    void reset() { start_ = Clock::now(); }

    double seconds() const {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    double millis() const { return seconds() * 1e3; }

    std::chrono::steady_clock::time_point start() const { return start_; }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

}  // namespace swh
