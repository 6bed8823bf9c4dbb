#pragma once

#include <cstdint>
#include <string>

namespace swh::core {

using TaskId = std::uint32_t;
using PeId = std::uint32_t;

constexpr PeId kInvalidPe = ~PeId{0};

/// Kind of processing element, as in the paper's hybrid platform. The
/// scheduler itself is kind-agnostic (it learns speeds from observed
/// progress); the kind is kept for reporting and for the WFixed baseline,
/// which distributes by *declared* power per kind (Meng & Chaudhary).
enum class PeKind : std::uint8_t { SseCore, Gpu };

const char* to_string(PeKind kind);

/// Task lifecycle (paper SS IV-A.3): ready -> executing -> finished.
/// With the workload-adjustment mechanism a task can be Executing on
/// several PEs at once; the first completion moves it to Finished.
enum class TaskState : std::uint8_t { Ready, Executing, Finished };

const char* to_string(TaskState state);

/// One work unit: compare one query sequence against the whole database
/// (the paper's very coarse-grained decomposition, SS IV).
struct Task {
    TaskId id = 0;
    std::uint32_t query_index = 0;
    std::uint64_t cells = 0;  ///< |query| x database residues

    friend bool operator==(const Task&, const Task&) = default;
};

}  // namespace swh::core
