// libFuzzer harness for the SWHIDX2 binary index reader — the
// header/offset-table parser behind IndexedFastaReader. A hostile
// sidecar must yield ParseError, never an allocation blow-up or a
// structurally inconsistent index.

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "io/indexed.hpp"
#include "util/error.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    const std::string bytes(reinterpret_cast<const char*>(data), size);
    std::istringstream in(bytes);
    try {
        const swh::io::SequenceIndex idx = swh::io::load_index(in);
        // What load_index returns must satisfy save_index's
        // preconditions and its own documented invariants.
        if (idx.offsets.size() != idx.sequence_count) __builtin_trap();
        if (idx.lengths.size() != idx.sequence_count) __builtin_trap();
        std::uint64_t total = 0;
        std::uint64_t longest = 0;
        for (const std::uint64_t len : idx.lengths) {
            total += len;
            if (len > longest) longest = len;
        }
        if (total != idx.total_residues) __builtin_trap();
        if (longest != idx.max_sequence_length) __builtin_trap();
        if (!idx.offsets.empty() && idx.offsets.back() >= idx.source_size)
            __builtin_trap();
        std::ostringstream out;
        swh::io::save_index(idx, out);
    } catch (const swh::ParseError&) {
    }
    return 0;
}
