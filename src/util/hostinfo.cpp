#include "util/hostinfo.hpp"

#include <fstream>
#include <thread>

#include "simd/arch.hpp"
#include "util/str.hpp"

// The commit stamp is generated at build time (cmake/git_sha.cmake);
// a build that does not generate it reports "unknown".
#if __has_include("swh_git_sha.h")
#include "swh_git_sha.h"
#endif
#ifndef SWH_GIT_SHA
#define SWH_GIT_SHA "unknown"
#endif
#ifndef SWH_BUILD_FLAGS
#define SWH_BUILD_FLAGS ""
#endif

namespace swh {

namespace {

std::string cpu_model_name() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        // x86 says "model name", some ARM kernels say "Processor".
        if (starts_with(line, "model name") ||
            starts_with(line, "Processor")) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return std::string(trim(line.substr(colon + 1)));
            }
        }
    }
    return "";
}

std::string compiler_id() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

}  // namespace

HostInfo host_info() {
    HostInfo info;
    info.cpu_model = cpu_model_name();
    info.hardware_threads = std::thread::hardware_concurrency();
    info.compiler = compiler_id();
    info.git_sha = SWH_GIT_SHA;
    info.build_flags = std::string(SWH_BUILD_FLAGS) + " kernels=" +
                       simd::to_string(simd::active_tier());
    return info;
}

}  // namespace swh
