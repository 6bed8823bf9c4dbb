#pragma once

#include <cstdint>

namespace swh::engines {

/// Occupancy-saturation rate curve shared by every device model:
/// peak * R / (R + R_half) on a database of R residues, or the flat
/// `peak_gcups` when `half_saturation_residues` <= 0.
inline double saturated_gcups(double peak_gcups,
                              double half_saturation_residues,
                              std::uint64_t db_residues) {
    if (half_saturation_residues <= 0.0) return peak_gcups;
    const double r = static_cast<double>(db_residues);
    return peak_gcups * r / (r + half_saturation_residues);
}

/// Calibrated throughput model of a CUDASW++ 2.0-class GPU (GTX580 era).
///
/// Effective GCUPS follows an occupancy-saturation curve in the database
/// size: small databases cannot fill the device, so per-kernel overheads
/// dominate — this is what makes the paper's GPUs deliver roughly twice
/// the GCUPS on UniProtKB/SwissProt (~190M residues) as on the four small
/// Table II databases (~12-19M residues), and it is the single knob
/// behind Table IV's GCUPS split and Table V's 4-GPU crossover.
struct GpuDeviceModel {
    /// Big-database throughput. 45 GCUPS makes the simulated 4 GPU +
    /// 4 SSE platform finish the paper's SwissProt workload in ~112 s,
    /// the paper's headline (their GTX580s outran CUDASW++ 2.0's
    /// published Fermi numbers).
    double peak_gcups = 45.0;
    /// Database size (residues) at which the device reaches half its
    /// peak rate. 24M puts the small Table II databases (~15-25M) near
    /// half peak and SwissProt (~190M) near 90% of peak — Table IV's
    /// "double GCUPS on SwissProt" split.
    double half_saturation_residues = 24e6;
    double task_overhead_s = 0.05;  ///< per-task launch/transfer cost

    double effective_gcups(std::uint64_t db_residues) const {
        return saturated_gcups(peak_gcups, half_saturation_residues,
                               db_residues);
    }
};

/// Flat-rate model for one SSE core running the adapted Farrar kernel,
/// independent of database size (the kernel streams; no occupancy
/// effect). 2.75 GCUPS reproduces the paper's 7190 s single-core
/// SwissProt run (Table III).
struct SseCoreModel {
    double gcups = 2.75;
    double task_overhead_s = 0.002;
};

}  // namespace swh::engines
