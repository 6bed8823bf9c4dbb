#include "core/types.hpp"

namespace swh::core {

const char* to_string(PeKind kind) {
    switch (kind) {
        case PeKind::SseCore:
            return "sse";
        case PeKind::Gpu:
            return "gpu";
    }
    return "?";
}

const char* to_string(TaskState state) {
    switch (state) {
        case TaskState::Ready:
            return "ready";
        case TaskState::Executing:
            return "executing";
        case TaskState::Finished:
            return "finished";
    }
    return "?";
}

}  // namespace swh::core
