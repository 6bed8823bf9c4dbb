#include "db/packed.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>

#include "util/error.hpp"

namespace swh::db {

namespace {
constexpr std::size_t kArenaAlign = 64;
}

void PackedDatabase::ArenaFree::operator()(align::Code* p) const {
    ::operator delete[](p, std::align_val_t{kArenaAlign});
}

void InterleavedChunks::ArenaFree::operator()(align::Code* p) const {
    ::operator delete[](p, std::align_val_t{kArenaAlign});
}

align::InterleavedCohorts InterleavedChunks::view() const {
    align::InterleavedCohorts v;
    v.arena = arena_.get();
    v.cohorts = cohorts_.data();
    v.count = cohorts_.size();
    v.lanes = lanes_;
    v.pad_code = align::InterseqProfile::kPadCode;
    return v;
}

PackedDatabase PackedDatabase::pack(
    const std::vector<align::Sequence>& sequences) {
    SWH_REQUIRE(sequences.size() <= std::numeric_limits<std::uint32_t>::max(),
                "database too large for 32-bit subject indices");
    PackedDatabase p;
    const std::size_t n = sequences.size();
    p.offsets_.reserve(n);
    p.lengths_.reserve(n);

    std::uint64_t total = 0;
    for (const align::Sequence& s : sequences) {
        SWH_REQUIRE(s.size() <= std::numeric_limits<std::uint32_t>::max(),
                    "sequence too long for the packed layout");
        total += s.size();
    }
    if (total > 0) {
        p.arena_.reset(static_cast<align::Code*>(
            ::operator new[](total, std::align_val_t{kArenaAlign})));
    }

    for (const align::Sequence& s : sequences) {
        p.lengths_.push_back(static_cast<std::uint32_t>(s.size()));
        p.max_length_ = std::max(p.max_length_, s.size());
    }

    p.order_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        p.order_[i] = static_cast<std::uint32_t>(i);
    }
    // Longest-first with a stable index tie-break: deterministic, keeps
    // similar lengths adjacent, and front-loads the long tail so chunked
    // claiming balances well.
    std::sort(p.order_.begin(), p.order_.end(),
              [&p](std::uint32_t a, std::uint32_t b) {
                  if (p.lengths_[a] != p.lengths_[b]) {
                      return p.lengths_[a] > p.lengths_[b];
                  }
                  return a < b;
              });

    // Lay the arena out in scan order: pass 1 walks order_[0..n) and so
    // streams the arena front to back with no strided jumps. offsets_
    // stays indexed by the original database index.
    p.offsets_.assign(n, 0);
    std::uint64_t at = 0;
    align::Code max_code = 0;
    for (const std::uint32_t idx : p.order_) {
        const align::Sequence& s = sequences[idx];
        p.offsets_[idx] = at;
        if (!s.residues.empty()) {
            std::memcpy(p.arena_.get() + at, s.residues.data(), s.size());
            for (const align::Code c : s.residues) {
                max_code = std::max(max_code, c);
            }
            at += s.size();
        }
    }
    p.residues_ = total;
    p.max_code_ = max_code;
    return p;
}

const InterleavedChunks& PackedDatabase::interleaved(int lanes) const {
    SWH_REQUIRE(lanes >= 1 && lanes <= 64,
                "cohort width must be a SIMD u8 lane count (1..64)");
    SWH_REQUIRE(size() == 0 || max_code_ < align::InterseqProfile::kPadCode,
                "residue codes collide with the interleave padding sentinel");
    const swh::LockGuard lock(itl_->mutex);
    for (const auto& c : itl_->built) {
        if (c->lanes() == lanes) return *c;
    }

    auto chunks = std::make_unique<InterleavedChunks>();
    chunks->lanes_ = lanes;
    const std::size_t n = size();
    const std::size_t w = static_cast<std::size_t>(lanes);

    // One rule: cohort c is scan slots [c*W, min(c*W + W, n)). The scan
    // order is longest-first, so cohorts come out longest-first too (the
    // claim-balancing property) and each one's first member sets its
    // column count.
    chunks->cohorts_.reserve((n + w - 1) / w);
    std::uint64_t total = 0;
    for (std::size_t s0 = 0; s0 < n; s0 += w) {
        align::CohortDesc d;
        d.offset = total;
        d.columns = lengths_[order_[s0]];
        d.first_slot = static_cast<std::uint32_t>(s0);
        d.lanes_used = static_cast<std::uint32_t>(std::min(w, n - s0));
        for (std::uint32_t l = 0; l < d.lanes_used; ++l) {
            d.residues += lengths_[order_[s0 + l]];
        }
        total += std::uint64_t{d.columns} * w;
        chunks->cohorts_.push_back(d);
    }

    if (total > 0) {
        chunks->arena_.reset(static_cast<align::Code*>(
            ::operator new[](total, std::align_val_t{kArenaAlign})));
        const align::PackedSubjects subjects = view();
        for (const align::CohortDesc& d : chunks->cohorts_) {
            align::interleave_subjects(
                subjects, order_.data() + d.first_slot, d.lanes_used, w,
                {chunks->arena_.get() + d.offset,
                 std::size_t{d.columns} * w});
        }
    }

    itl_->built.push_back(std::move(chunks));
    return *itl_->built.back();
}

align::PackedSubjects PackedDatabase::view() const {
    align::PackedSubjects v;
    v.arena = arena_.get();
    v.offsets = offsets_.data();
    v.lengths = lengths_.data();
    v.order = order_.data();
    v.count = lengths_.size();
    v.max_length = max_length_;
    v.max_code = max_code_;
    return v;
}

}  // namespace swh::db
