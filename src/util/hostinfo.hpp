#pragma once

// Host/build provenance for benchmark artifacts: BENCH_scan.json files
// are only comparable across machines and commits when each one says
// which machine and commit produced it.

#include <string>

namespace swh {

struct HostInfo {
    std::string cpu_model;        ///< /proc/cpuinfo "model name" (or "")
    unsigned hardware_threads = 0;
    std::string compiler;         ///< compiler id + version
    std::string git_sha;          ///< build-time HEAD (or "unknown")
    /// Build type + CXX flags baked in, then "kernels=" and the ISA
    /// tier the kernels run (simd::active_tier(), "x86-64-v4").
    std::string build_flags;
};

/// Gathers the above; never throws (missing sources yield defaults).
HostInfo host_info();

}  // namespace swh
