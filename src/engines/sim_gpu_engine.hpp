#pragma once

#include <memory>

#include "engines/cpu_engine.hpp"
#include "engines/device_model.hpp"
#include "engines/engine.hpp"

namespace swh::engines {

/// CUDASW++ 2.0 stand-in (hardware substitution, see DESIGN.md): computes
/// exact Smith-Waterman scores with the striped kernel — as the real tool
/// does, so results are interchangeable — while its *timing* follows the
/// GpuDeviceModel occupancy curve.
///
/// With `pace = true` the engine sleeps to the modeled rate, so wall-
/// clock experiments on this machine see a realistic GPU:SSE speed ratio.
/// With `pace = false` it runs at full host speed (functional tests,
/// score validation).
class SimGpuEngine final : public ComputeEngine {
public:
    SimGpuEngine(EngineConfig config, GpuDeviceModel model, bool pace);

    std::string_view name() const override { return "sim-gpu(cudasw-like)"; }
    core::PeKind kind() const override { return core::PeKind::Gpu; }

    core::TaskResult execute(const align::Sequence& query,
                             std::uint32_t query_index, core::TaskId task,
                             const db::Database& database,
                             ExecutionObserver* observer) override;

    const GpuDeviceModel& model() const { return model_; }

private:
    GpuDeviceModel model_;
    std::unique_ptr<ComputeEngine> impl_;  ///< CpuEngine or throttled wrap
};

}  // namespace swh::engines
