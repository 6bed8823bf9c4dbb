#pragma once

// Reads the "task" spans back off a DES run's trace: the PE lanes
// follow the master lane, one per SimReport::pes entry.

#include <vector>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace swh::sim {

struct Span {
    core::TaskId task = 0;
    std::size_t pe = 0;  ///< index into SimReport::pes
    double start = 0.0;
    double end = 0.0;
    bool aborted = false;
};

/// Every PE's spans, PE by PE, each PE's in the order they ended.
inline std::vector<Span> task_spans(const SimReport& r) {
    std::vector<Span> out;
    const std::size_t first_pe = r.trace.lanes.size() - r.pes.size();
    for (std::size_t p = 0; p < r.pes.size(); ++p) {
        for (const obs::LaneSpan& s :
             obs::lane_spans(r.trace.lanes[first_pe + p])) {
            out.push_back(Span{s.task, p, s.start, s.end, s.aborted});
        }
    }
    return out;
}

}  // namespace swh::sim
