#pragma once

#include <cmath>

#include "util/ring_buffer.hpp"

namespace swh::core {

/// Per-slave processing-speed estimator (paper SS IV-A.2): keeps the last
/// Omega progress notifications (cells/second samples) and summarises
/// them with a recency-weighted mean. Small Omega reacts fast to load
/// changes; large Omega smooths noise.
class ProgressHistory {
public:
    explicit ProgressHistory(std::size_t omega) : window_(omega) {}

    /// Drops negative and non-finite samples: one would poison the
    /// weighted mean for the next Omega samples. Samples from in-process
    /// slaves never pass the wire codec's finite-double check.
    void record(double cells_per_second) {
        if (std::isfinite(cells_per_second) && cells_per_second >= 0.0) {
            window_.push(cells_per_second);
        }
    }

    bool has_history() const { return !window_.empty(); }

    /// Recency-weighted mean rate; 0 when no history yet.
    double rate() const;

    std::size_t omega() const { return window_.capacity(); }
    std::size_t samples() const { return window_.size(); }

private:
    RingBuffer<double> window_;
};

}  // namespace swh::core
