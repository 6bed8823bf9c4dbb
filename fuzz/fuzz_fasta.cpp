// libFuzzer harness for the FASTA scanner behind read_fasta and
// build_index. Any input must either parse or throw a typed swh error
// (ParseError / ContractError), and both readers must agree: the same
// outcome, and an index whose offsets sit on each record's '>' and whose
// lengths are the parsed records' sizes. Every other escape — crash,
// sanitizer report, unexpected exception type, disagreement — is a
// finding. Built with -fsanitize=fuzzer under Clang (SWH_FUZZ); other
// compilers link standalone_main.cpp and replay the checked-in corpus.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "align/alphabet.hpp"
#include "io/fasta.hpp"
#include "io/indexed.hpp"
#include "util/error.hpp"

namespace {

/// 0 parsed, 1 ParseError, 2 ContractError.
template <class F>
int outcome(F&& f) {
    try {
        f();
        return 0;
    } catch (const swh::ParseError&) {
        return 1;
    } catch (const swh::ContractError&) {
        return 2;
    }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    const std::string text(reinterpret_cast<const char*>(data), size);
    std::optional<swh::io::SequenceIndex> idx;
    const int index_outcome = outcome([&] {
        std::istringstream in(text);
        idx = swh::io::build_index(in);
    });
    for (const swh::align::Alphabet* alphabet :
         {&swh::align::Alphabet::protein(), &swh::align::Alphabet::dna()}) {
        std::vector<swh::align::Sequence> seqs;
        const int parse_outcome = outcome([&] {
            std::istringstream in(text);
            seqs = swh::io::read_fasta(in, *alphabet);
            // Round-trip what parsed: the writer must accept any
            // sequence the reader produced.
            std::ostringstream out;
            swh::io::write_fasta(out, seqs, *alphabet);
        });
        if (parse_outcome != index_outcome) __builtin_trap();
        if (parse_outcome != 0) continue;
        if (idx->sequence_count != seqs.size()) __builtin_trap();
        for (std::size_t i = 0; i < seqs.size(); ++i) {
            if (idx->lengths[i] != seqs[i].size()) __builtin_trap();
            if (idx->offsets[i] >= text.size() ||
                text[idx->offsets[i]] != '>')
                __builtin_trap();
        }
    }
    return 0;
}
