#include "core/policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "util/error.hpp"

namespace swh::core {

namespace {

class SelfScheduling final : public AllocationPolicy {
public:
    std::string_view name() const override { return "SS"; }

    std::size_t batch_size(const SlaveView&, std::span<const SlaveView>,
                           std::size_t ready_remaining,
                           std::size_t) override {
        return ready_remaining > 0 ? 1 : 0;
    }
};

class ChunkedSelfScheduling final : public AllocationPolicy {
public:
    explicit ChunkedSelfScheduling(std::size_t chunk) : chunk_(chunk) {
        SWH_REQUIRE(chunk > 0, "chunk size must be positive");
    }

    std::string_view name() const override { return "ChunkedSS"; }

    std::size_t batch_size(const SlaveView&, std::span<const SlaveView>,
                           std::size_t ready_remaining,
                           std::size_t) override {
        return std::min(chunk_, ready_remaining);
    }

private:
    std::size_t chunk_;
};

class Pss final : public AllocationPolicy {
public:
    std::string_view name() const override { return "PSS"; }

    std::size_t batch_size(const SlaveView& requester,
                           std::span<const SlaveView> all,
                           std::size_t ready_remaining,
                           std::size_t) override {
        if (ready_remaining == 0) return 0;
        // First-allocation round: no observed speed yet -> one task.
        if (!requester.has_rate || requester.rate <= 0.0) return 1;
        double min_rate = std::numeric_limits<double>::infinity();
        for (const SlaveView& s : all) {
            if (s.has_rate && s.rate > 0.0) min_rate = std::min(min_rate, s.rate);
        }
        // Phi(p_i, P) = requester rate / slowest observed rate.
        const double phi = requester.rate / min_rate;
        // Clamp before rounding: llround past long long's range is
        // unspecified (LLONG_MIN on x86), which would size a huge ratio
        // at one task. Negated so that a NaN ratio clamps too.
        if (!(phi < static_cast<double>(ready_remaining))) {
            return ready_remaining;
        }
        const auto batch = static_cast<std::size_t>(
            std::max<long long>(1, std::llround(phi)));
        return std::min(batch, ready_remaining);
    }
};

class Fixed final : public AllocationPolicy {
public:
    std::string_view name() const override { return "Fixed"; }

    std::size_t batch_size(const SlaveView& requester,
                           std::span<const SlaveView> all,
                           std::size_t ready_remaining,
                           std::size_t total_tasks) override {
        // Shares are computed against the membership at the FIRST
        // request, captured once. Evaluating `all.size()` per request
        // mis-splits when slaves register late (join_delay_s): early
        // requesters would be sized against a smaller p and the pool
        // over-allocated to whoever asked first.
        if (!snapshot_taken_) {
            snapshot_taken_ = true;
            for (const SlaveView& s : all) snapshot_.insert(s.id);
        }
        if (served_.count(requester.id) != 0) return 0;
        served_.insert(requester.id);
        // A late joiner missed the static split; it gets nothing here
        // (the scheduler's safety valve feeds it single tasks if work
        // ever returns to Ready).
        if (snapshot_.count(requester.id) == 0) return 0;
        ++snapshot_served_;
        const std::size_t p = std::max<std::size_t>(1, snapshot_.size());
        // Even split with the remainder spread over the first requesters.
        std::size_t share = total_tasks / p;
        if (snapshot_served_ <= total_tasks % p) ++share;
        return std::min(share, ready_remaining);
    }

private:
    bool snapshot_taken_ = false;
    std::set<PeId> snapshot_;  ///< membership at the first request
    std::size_t snapshot_served_ = 0;
    std::set<PeId> served_;
};

class WFixed final : public AllocationPolicy {
public:
    explicit WFixed(std::map<PeKind, double> power)
        : power_(std::move(power)) {
        for (const auto& [kind, w] : power_) {
            SWH_REQUIRE(w > 0.0, "declared power must be positive");
        }
    }

    std::string_view name() const override { return "WFixed"; }

    std::size_t batch_size(const SlaveView& requester,
                           std::span<const SlaveView> all,
                           std::size_t ready_remaining,
                           std::size_t total_tasks) override {
        // Same late-joiner hazard as Fixed: both the total declared
        // power and the "last slave mops up" condition must be judged
        // against the first-request membership, not the live roster —
        // otherwise a join_delay_s slave inflates `all.size()` so the
        // mop-up never fires, or an early slave mops up the whole
        // remainder before the snapshot peers were served.
        if (!snapshot_taken_) {
            snapshot_taken_ = true;
            for (const SlaveView& s : all) snapshot_.emplace(s.id, s.kind);
        }
        if (served_.count(requester.id) != 0) return 0;
        served_.insert(requester.id);
        if (snapshot_.count(requester.id) == 0) return 0;  // late joiner
        ++snapshot_served_;
        double total_w = 0.0;
        for (const auto& [id, kind] : snapshot_) total_w += weight(kind);
        SWH_REQUIRE(total_w > 0.0, "no declared power for any slave");
        const double share = static_cast<double>(total_tasks) *
                             weight(requester.kind) / total_w;
        auto batch =
            static_cast<std::size_t>(std::max<long long>(0, std::llround(share)));
        // The last snapshot slave to be served mops up rounding leftovers.
        if (snapshot_served_ == snapshot_.size()) batch = ready_remaining;
        return std::min(std::max<std::size_t>(batch, 1), ready_remaining);
    }

private:
    double weight(PeKind kind) const {
        const auto it = power_.find(kind);
        return it != power_.end() ? it->second : 1.0;
    }

    std::map<PeKind, double> power_;
    bool snapshot_taken_ = false;
    std::map<PeId, PeKind> snapshot_;  ///< membership at the first request
    std::size_t snapshot_served_ = 0;
    std::set<PeId> served_;
};

}  // namespace

std::unique_ptr<AllocationPolicy> make_self_scheduling() {
    return std::make_unique<SelfScheduling>();
}

std::unique_ptr<AllocationPolicy> make_chunked_self_scheduling(
    std::size_t chunk) {
    return std::make_unique<ChunkedSelfScheduling>(chunk);
}

std::unique_ptr<AllocationPolicy> make_pss() { return std::make_unique<Pss>(); }

std::unique_ptr<AllocationPolicy> make_fixed() {
    return std::make_unique<Fixed>();
}

std::unique_ptr<AllocationPolicy> make_wfixed(
    std::map<PeKind, double> declared_power) {
    return std::make_unique<WFixed>(std::move(declared_power));
}

}  // namespace swh::core
