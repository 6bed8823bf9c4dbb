#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "engines/device_model.hpp"

namespace swh::sim {

/// Timing model of one processing element in the simulated platform.
/// rate(R) = engines::saturated_gcups(peak_gcups, R_half, R) *
/// load_factor: the occupancy curve of engines::GpuDeviceModel when
/// half_saturation_residues > 0, a flat rate (SSE cores) at 0.
struct PeModelSpec {
    std::string label;
    core::PeKind kind = core::PeKind::SseCore;
    double peak_gcups = 2.0;
    double half_saturation_residues = 0.0;
    double task_overhead_s = 0.0;

    double effective_gcups(std::uint64_t db_residues) const {
        return engines::saturated_gcups(peak_gcups, half_saturation_residues,
                                        db_residues);
    }
};

/// The paper's PEs, calibrated per DESIGN.md.
PeModelSpec sse_core_pe(std::string label,
                        const engines::SseCoreModel& model = {});
PeModelSpec gpu_pe(std::string label, const engines::GpuDeviceModel& model = {});

/// A change in a PE's locally available compute (the paper's Fig. 8
/// superpi experiment): from `time` on, the PE delivers
/// `speed_factor` x its nominal rate.
struct LoadEvent {
    double time = 0.0;
    std::size_t pe_index = 0;
    double speed_factor = 1.0;
};

/// Dynamic-membership events (future-work extension).
struct LeaveEvent {
    double time = 0.0;
    std::size_t pe_index = 0;
};

struct JoinEvent {
    double time = 0.0;
    PeModelSpec pe;
};

}  // namespace swh::sim
