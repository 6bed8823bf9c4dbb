#include "sim/platform.hpp"

namespace swh::sim {

PeModelSpec sse_core_pe(std::string label,
                        const engines::SseCoreModel& model) {
    PeModelSpec pe;
    pe.label = std::move(label);
    pe.kind = core::PeKind::SseCore;
    pe.peak_gcups = model.gcups;
    pe.half_saturation_residues = 0.0;
    pe.task_overhead_s = model.task_overhead_s;
    return pe;
}

PeModelSpec gpu_pe(std::string label, const engines::GpuDeviceModel& model) {
    PeModelSpec pe;
    pe.label = std::move(label);
    pe.kind = core::PeKind::Gpu;
    pe.peak_gcups = model.peak_gcups;
    pe.half_saturation_residues = model.half_saturation_residues;
    pe.task_overhead_s = model.task_overhead_s;
    return pe;
}

}  // namespace swh::sim
