#include "obs/dashboard.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "obs/gantt.hpp"
#include "util/str.hpp"

namespace swh::obs {

namespace {

/// "sched.pe.<id>.<leaf>" -> id, or -1 when the name has another shape.
long pe_id_of(const std::string& name, const char* leaf) {
    const std::string prefix = "sched.pe.";
    const std::string suffix = std::string(".") + leaf;
    if (name.size() <= prefix.size() + suffix.size()) return -1;
    if (name.compare(0, prefix.size(), prefix) != 0) return -1;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
        return -1;
    }
    const std::string mid =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (mid.empty()) return -1;
    for (const char c : mid) {
        if (c < '0' || c > '9') return -1;
    }
    return std::strtol(mid.c_str(), nullptr, 10);
}

}  // namespace

std::string render_dashboard(const MetricsSnapshot& snapshot,
                             const DashboardOptions& options) {
    std::map<long, double> rate_gcups;
    for (const auto& [name, value] : snapshot.gauges) {
        const long pe = pe_id_of(name, "rate_cps");
        if (pe >= 0) rate_gcups[pe] = value / 1e9;
    }
    std::map<long, std::uint64_t> accepted;
    for (const auto& [name, value] : snapshot.counters) {
        const long pe = pe_id_of(name, "accepted");
        if (pe >= 0) accepted[pe] = value;
    }

    std::ostringstream os;
    os << "t=" << format_double(options.elapsed_s, 1) << "s  pes "
       << rate_gcups.size() << "  accepted "
       << snapshot.counter("sched.completions_accepted") << "  discarded "
       << snapshot.counter("sched.completions_discarded") << "  replicas "
       << snapshot.counter("sched.replicas_issued") << "  dropped "
       << snapshot.counter("obs.trace.dropped") << '\n';

    // Instantaneous rate imbalance (max/mean of the PEs currently
    // reporting) — the live proxy for the post-run busy-time ratio.
    double max_rate = 0.0;
    double sum_rate = 0.0;
    std::size_t active = 0;
    for (const auto& [pe, rate] : rate_gcups) {
        if (rate <= 0.0) continue;
        max_rate = std::max(max_rate, rate);
        sum_rate += rate;
        ++active;
    }
    if (active > 0) {
        const double mean = sum_rate / static_cast<double>(active);
        os << "rate " << format_double(sum_rate, 2) << " GCUPS aggregate,"
           << " imbalance " << format_double(max_rate / mean, 2) << " (max/"
           << "mean over " << active << " active)\n";
    }

    // Funnel state, when the CPU engine's prefilter is live.
    for (const auto& [name, value] : snapshot.gauges) {
        if (name == "engine.cpu.filter.tau" && value > 0.0) {
            const std::uint64_t pruned =
                snapshot.counter("engine.cpu.filter.pruned");
            // Every subject is pruned, exact-scored on one stage-2 route
            // or drained hot from a probe — hot lanes count in no
            // scan.dispatch.subjects_* counter.
            const std::uint64_t subjects =
                pruned + snapshot.counter("scan.dispatch.subjects_interseq") +
                snapshot.counter("scan.dispatch.subjects_striped") +
                snapshot.counter("engine.cpu.filter.hot");
            os << "funnel tau " << format_double(value, 0);
            if (subjects > 0) {
                os << "  pruned "
                   << format_double(100.0 * static_cast<double>(pruned) /
                                        static_cast<double>(subjects),
                                    1)
                   << "% of subjects";
            }
            os << '\n';
        }
    }
    if (const HistogramSummary* depth =
            snapshot.histogram("channel.master_inbox.depth");
        depth != nullptr && depth->count > 0) {
        os << "master inbox depth p50 " << format_double(depth->p50, 1)
           << "  p99 " << format_double(depth->p99, 1) << '\n';
    }

    if (!rate_gcups.empty()) {
        double full_scale = options.full_scale_gcups;
        if (full_scale <= 0.0) full_scale = std::max(max_rate, 1e-9);
        const std::size_t cols = std::max<std::size_t>(options.bar_columns, 8);
        std::vector<GanttSpan> bars;
        std::vector<std::string> labels;
        for (const auto& [pe, rate] : rate_gcups) {
            const std::size_t row = labels.size();
            const auto id = static_cast<std::size_t>(pe);
            std::string label = id < options.pe_labels.size() &&
                                        !options.pe_labels[id].empty()
                                    ? options.pe_labels[id]
                                    : "pe" + std::to_string(pe);
            label.append(" ").append(format_double(rate, 2));
            if (const auto it = accepted.find(pe); it != accepted.end()) {
                label.append(" (")
                    .append(std::to_string(it->second))
                    .append(" acc)");
            }
            labels.push_back(std::move(label));
            bars.push_back(GanttSpan{row, static_cast<std::uint64_t>(pe), 0.0,
                                     std::min(rate, full_scale), false});
        }
        os << render_gantt(bars, labels,
                           full_scale / static_cast<double>(cols), "GCUPS");
    }
    return os.str();
}

}  // namespace swh::obs
