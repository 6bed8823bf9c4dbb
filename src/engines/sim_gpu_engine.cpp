#include "engines/sim_gpu_engine.hpp"

#include "engines/throttled_engine.hpp"

namespace swh::engines {

SimGpuEngine::SimGpuEngine(EngineConfig config, GpuDeviceModel model,
                           bool pace)
    : model_(model) {
    // Real-score path: the CpuEngine underneath runs the packed two-pass
    // database scan (align::DatabaseScanner), so the simulated GPU's
    // scores come from the same arena-backed pipeline as the SSE slaves.
    auto compute = std::make_unique<CpuEngine>(config);
    if (pace) {
        impl_ = std::make_unique<ThrottledEngine>(
            std::move(compute),
            [m = model_](const db::Database& database) {
                return m.effective_gcups(database.residues());
            },
            model_.task_overhead_s, "sim-gpu-paced");
    } else {
        impl_ = std::move(compute);
    }
}

core::TaskResult SimGpuEngine::execute(const align::Sequence& query,
                                       std::uint32_t query_index,
                                       core::TaskId task,
                                       const db::Database& database,
                                       ExecutionObserver* observer) {
    return impl_->execute(query, query_index, task, database, observer);
}

}  // namespace swh::engines
