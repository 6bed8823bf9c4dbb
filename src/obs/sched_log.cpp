#include "obs/sched_log.hpp"

#include <cmath>
#include <ostream>

#include "util/error.hpp"

namespace swh::obs {

namespace {

std::string pe_label(core::PeId pe, std::span<const std::string> labels) {
    const auto i = static_cast<std::size_t>(pe);
    if (i < labels.size() && !labels[i].empty()) return labels[i];
    return "pe" + std::to_string(pe);
}

bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::vector<WeightSample> weight_samples(const Trace& trace) {
    std::vector<WeightSample> samples;
    for (const TraceLaneData& lane : trace.lanes) {
        if (lane.label != "master") continue;
        if (lane.dropped > 0) {
            throw IoError("obs.trace.dropped " +
                          std::to_string(lane.dropped) +
                          ": the master lane overflowed, so the weight "
                          "trajectories would miss samples");
        }
        for (const TraceEvent& e : lane.events) {
            if (e.kind == EventKind::Progress) {
                samples.push_back(WeightSample{e.pe, e.t, e.value, e.aux});
            }
        }
    }
    return samples;
}

void write_weights(std::ostream& os, const std::string& path,
                   std::span<const WeightSample> samples,
                   std::span<const std::string> pe_labels) {
    if (ends_with(path, ".json")) {
        os << "[";
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const WeightSample& s = samples[i];
            os << (i == 0 ? "\n" : ",\n");
            os << "  {\"pe\": " << s.pe << ", \"label\": \""
               << pe_label(s.pe, pe_labels) << "\", \"t\": " << s.t
               << ", \"realised_cps\": " << s.realised_cps
               << ", \"estimate_cps\": " << s.prior_estimate_cps << '}';
        }
        os << "\n]\n";
        return;
    }
    os << "pe,label,t_seconds,realised_cps,estimate_cps,rel_error\n";
    for (const WeightSample& s : samples) {
        os << s.pe << ',' << pe_label(s.pe, pe_labels) << ',' << s.t << ','
           << s.realised_cps << ',' << s.prior_estimate_cps << ',';
        if (s.realised_cps > 0.0 && s.prior_estimate_cps > 0.0) {
            os << std::abs(s.prior_estimate_cps - s.realised_cps) /
                      s.realised_cps;
        }
        os << '\n';
    }
}

}  // namespace swh::obs
