#include "db/packed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "db/database.hpp"
#include "util/error.hpp"

namespace swh::db {
namespace {

db::Database make_db(std::size_t n = 30, std::uint64_t seed = 3) {
    DatabaseSpec spec;
    spec.name = "packed-test";
    spec.num_sequences = n;
    spec.length.min_len = 10;
    spec.length.max_len = 300;
    spec.seed = seed;
    return Database::generate(spec);
}

TEST(PackedDatabase, ArenaMatchesSequences) {
    const Database database = make_db();
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    ASSERT_EQ(packed.size(), database.size());
    EXPECT_EQ(packed.residues(), database.residues());
    std::size_t max_len = 0;
    for (std::size_t i = 0; i < database.size(); ++i) {
        const auto& seq = database[i].residues;
        const auto sub = packed.subject(i);
        ASSERT_EQ(sub.size(), seq.size());
        EXPECT_TRUE(std::equal(sub.begin(), sub.end(), seq.begin()));
        max_len = std::max(max_len, seq.size());
    }
    EXPECT_EQ(packed.max_length(), max_len);
}

TEST(PackedDatabase, ArenaIs64ByteAligned) {
    const Database database = make_db(5);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    // The arena is laid out in scan order, so the first scanned subject
    // sits at the (64-byte-aligned) arena base.
    const auto* base = packed.subject(packed.scan_order()[0]).data();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(base) % 64, 0u);
}

TEST(PackedDatabase, ArenaIsContiguousInScanOrder) {
    const Database database = make_db(40, 11);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    const auto order = packed.scan_order();
    const align::Code* expect =
        packed.size() ? packed.subject(order[0]).data() : nullptr;
    for (const std::uint32_t idx : order) {
        const auto sub = packed.subject(idx);
        EXPECT_EQ(sub.data(), expect) << "gap in scan-order arena layout";
        expect = sub.data() + sub.size();
    }
}

TEST(PackedDatabase, ScanOrderIsLengthSortedPermutation) {
    const Database database = make_db(50, 9);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    const auto order = packed.scan_order();
    ASSERT_EQ(order.size(), packed.size());
    std::vector<bool> seen(packed.size(), false);
    for (std::size_t slot = 0; slot < order.size(); ++slot) {
        ASSERT_LT(order[slot], packed.size());
        EXPECT_FALSE(seen[order[slot]]) << "duplicate index in scan order";
        seen[order[slot]] = true;
        if (slot > 0) {
            const std::uint32_t prev = order[slot - 1];
            const std::uint32_t cur = order[slot];
            // Longest first; equal lengths keep original index order.
            EXPECT_TRUE(packed.length(prev) > packed.length(cur) ||
                        (packed.length(prev) == packed.length(cur) &&
                         prev < cur));
        }
    }
}

TEST(PackedDatabase, MaxCodeReflectsArenaContents) {
    const Database database = make_db(20, 11);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    align::Code expected = 0;
    for (const auto& s : database.sequences()) {
        for (const align::Code c : s.residues) expected = std::max(expected, c);
    }
    EXPECT_EQ(packed.max_code(), expected);
    // Generated proteins use the 20 standard residues of the 24-letter
    // protein alphabet.
    EXPECT_LT(packed.max_code(), align::Alphabet::protein().size());
}

TEST(PackedDatabase, EmptyDatabase) {
    const PackedDatabase packed = PackedDatabase::pack({});
    EXPECT_EQ(packed.size(), 0u);
    EXPECT_EQ(packed.residues(), 0u);
    const align::PackedSubjects v = packed.view();
    EXPECT_EQ(v.count, 0u);
}

TEST(PackedDatabase, DatabaseCachesPackedForm) {
    const Database database = make_db(10, 13);
    const PackedDatabase* first = &database.packed();
    EXPECT_EQ(first, &database.packed());
    // Copies share the cache (sequences are immutable).
    const Database copy = database;  // NOLINT(performance-unnecessary-copy)
    EXPECT_EQ(first, &copy.packed());
}

TEST(PackedDatabase, ConcurrentPackedAccessIsSafe) {
    const Database database = make_db(40, 17);
    std::vector<const PackedDatabase*> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&database, &seen, t] {
            seen[t] = &database.packed();
        });
    }
    for (auto& th : threads) th.join();
    for (const PackedDatabase* p : seen) EXPECT_EQ(p, seen[0]);
    EXPECT_EQ(seen[0]->residues(), database.residues());
}

TEST(PackedDatabase, ScanOrderTieBreakIsBitReproducible) {
    // Many equal-length subjects: ties must keep ascending original
    // index, and packing twice must give the identical permutation —
    // scan output order (and thus cohort membership) is reproducible
    // run to run.
    std::vector<align::Sequence> seqs;
    for (int i = 0; i < 200; ++i) {
        const auto len = static_cast<std::size_t>(20 + (i % 4) * 10);
        seqs.push_back(align::Sequence{
            std::string("t").append(std::to_string(i)), "",
            std::vector<align::Code>(len, static_cast<align::Code>(i % 20))});
    }
    const PackedDatabase a = PackedDatabase::pack(seqs);
    const PackedDatabase b = PackedDatabase::pack(seqs);
    ASSERT_EQ(a.scan_order().size(), seqs.size());
    EXPECT_TRUE(std::equal(a.scan_order().begin(), a.scan_order().end(),
                           b.scan_order().begin()));
    const auto order = a.scan_order();
    for (std::size_t slot = 1; slot < order.size(); ++slot) {
        const std::uint32_t prev = order[slot - 1];
        const std::uint32_t cur = order[slot];
        if (a.length(prev) == a.length(cur)) {
            EXPECT_LT(prev, cur) << "equal-length tie broke out of order";
        } else {
            EXPECT_GT(a.length(prev), a.length(cur));
        }
    }
}

/// Structural invariants of the one cohort rule: cohort c holds scan
/// slots [c*W, min(c*W + W, n)) at a contiguous arena offset, its
/// columns are its first (longest) member's length, the arena holds
/// each member's residues column-major with padding past each lane's
/// length and in absent lanes, and every scan slot is packed exactly
/// once.
void check_layout(const PackedDatabase& packed, int lanes) {
    const InterleavedChunks& chunks = packed.interleaved(lanes);
    EXPECT_EQ(chunks.lanes(), lanes);
    const auto order = packed.scan_order();
    const align::InterleavedCohorts v = chunks.view();
    EXPECT_EQ(v.count, chunks.cohort_count());
    EXPECT_EQ(v.lanes, lanes);
    EXPECT_EQ(v.pad_code, align::InterseqProfile::kPadCode);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.arena) % 64, 0u);

    const std::uint64_t w = static_cast<std::uint64_t>(lanes);
    const std::uint64_t n = packed.size();
    EXPECT_EQ(v.count, (n + w - 1) / w);
    std::vector<int> seen(n, 0);
    std::uint64_t offset = 0;
    for (std::size_t c = 0; c < v.count; ++c) {
        const align::CohortDesc& d = v.cohorts[c];
        ASSERT_EQ(d.first_slot, c * w);
        ASSERT_EQ(d.lanes_used, std::min(w, n - c * w));
        EXPECT_EQ(d.columns, packed.length(order[d.first_slot]));
        EXPECT_EQ(d.offset, offset);
        offset += std::uint64_t{d.columns} * w;
        std::uint64_t residues = 0;
        for (std::uint32_t l = 0; l < d.lanes_used; ++l) {
            const std::uint32_t slot = d.first_slot + l;
            ++seen[slot];
            const auto sub = packed.subject(order[slot]);
            residues += sub.size();
            EXPECT_LE(sub.size(), d.columns);
            for (std::size_t j = 0; j < d.columns; ++j) {
                const align::Code got = v.arena[d.offset + j * w + l];
                if (j < sub.size()) {
                    EXPECT_EQ(got, sub[j])
                        << "cohort " << c << " lane " << l << " col " << j;
                } else {
                    EXPECT_EQ(got, align::InterseqProfile::kPadCode)
                        << "cohort " << c << " lane " << l << " col " << j;
                }
            }
        }
        EXPECT_EQ(d.residues, residues);
        // Absent lanes are pure padding: the kernels always run the
        // cohort at full width.
        for (std::uint64_t l = d.lanes_used; l < w; ++l) {
            for (std::size_t j = 0; j < d.columns; ++j) {
                EXPECT_EQ(v.arena[d.offset + j * w + l],
                          align::InterseqProfile::kPadCode);
            }
        }
    }
    for (std::size_t s = 0; s < seen.size(); ++s) {
        EXPECT_EQ(seen[s], 1) << "scan slot " << s
                              << " not packed exactly once";
    }
}

TEST(InterleavedChunksTest, CohortLayoutMatchesScanOrder) {
    const Database database = make_db(75, 19);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    check_layout(packed, 16);
    check_layout(packed, 64);
}

TEST(InterleavedChunksTest, UniformLengthsStayNaturalCohorts) {
    // 70 equal-length subjects at W = 16: four full cohorts and a
    // 6-lane tail.
    std::vector<align::Sequence> seqs;
    for (int i = 0; i < 70; ++i) {
        seqs.push_back(align::Sequence{
            std::string("u").append(std::to_string(i)), "",
            std::vector<align::Code>(80, 3)});
    }
    const PackedDatabase packed = PackedDatabase::pack(seqs);
    constexpr int kLanes = 16;
    const InterleavedChunks& chunks = packed.interleaved(kLanes);
    ASSERT_EQ(chunks.cohort_count(), 5u);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(chunks.cohort(c).lanes_used, 16u);
    }
    EXPECT_EQ(chunks.cohort(4).lanes_used, 6u);
    check_layout(packed, kLanes);
}

TEST(InterleavedChunksTest, IsolatedOutlierLeadsAFullNaturalCohort) {
    // One 2000-residue outlier over 33 subjects of 50 residues at
    // W = 16: the outlier leads the first cohort, which keeps all 16
    // lanes at 2000 columns. The layout never splits a group — the
    // scanner's fill bar routes this low-fill cohort instead.
    std::vector<align::Sequence> seqs;
    seqs.push_back(align::Sequence{
        "outlier", "", std::vector<align::Code>(2000, 2)});
    for (int i = 0; i < 33; ++i) {
        seqs.push_back(align::Sequence{
            "bg" + std::to_string(i), "", std::vector<align::Code>(50, 9)});
    }
    const PackedDatabase packed = PackedDatabase::pack(seqs);
    constexpr int kLanes = 16;
    const InterleavedChunks& chunks = packed.interleaved(kLanes);
    check_layout(packed, kLanes);
    ASSERT_EQ(chunks.cohort_count(), 3u);
    EXPECT_EQ(chunks.cohort(0).columns, 2000u);
    EXPECT_EQ(chunks.cohort(0).lanes_used, 16u);
    EXPECT_EQ(chunks.cohort(0).residues, 2000u + 15u * 50u);
    EXPECT_EQ(chunks.cohort(1).columns, 50u);
    EXPECT_EQ(chunks.cohort(2).lanes_used, 2u);
}

TEST(InterleavedChunksTest, CachedPerWidthAndThreadSafe) {
    const Database database = make_db(40, 23);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    const InterleavedChunks* w16 = &packed.interleaved(16);
    const InterleavedChunks* w32 = &packed.interleaved(32);
    EXPECT_NE(w16, w32);
    EXPECT_EQ(w16, &packed.interleaved(16));
    EXPECT_EQ(w32, &packed.interleaved(32));

    std::vector<const InterleavedChunks*> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&packed, &seen, t] {
            seen[t] = &packed.interleaved(64);
        });
    }
    for (auto& th : threads) th.join();
    for (const InterleavedChunks* p : seen) EXPECT_EQ(p, seen[0]);
}

TEST(InterleavedChunksTest, EmptyDatabaseYieldsNoCohorts) {
    const PackedDatabase packed = PackedDatabase::pack({});
    const InterleavedChunks& chunks = packed.interleaved(16);
    EXPECT_EQ(chunks.cohort_count(), 0u);
    EXPECT_EQ(chunks.view().count, 0u);
}

}  // namespace
}  // namespace swh::db
