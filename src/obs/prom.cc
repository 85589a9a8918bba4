/**
 * @file
 * Prometheus text exposition (version 0.0.4) for the obs registry.
 *
 * Rendering lives apart from obs.cc because it is a cold path with a
 * wire-format contract: `sdnavd --prom-port` and the `metrics`
 * protocol command both serve exactly this text, and the CI smoke
 * test greps it. The mapping from the registry's dotted names:
 *
 *   counter  server.requests         -> server_requests_total
 *   gauge    bdd.peak_nodes          -> bdd_peak_nodes
 *   timer    server.eval             -> server_eval_ms_sum / _ms_count
 *   histogram server.request_latency_ms
 *        -> server_request_latency_ms_bucket{le="..."} (cumulative)
 *           + server_request_latency_ms_sum / _count
 */

#include "obs/obs.hh"

#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

namespace sdnav::obs
{

namespace
{

/** Dotted metric name -> Prometheus-legal [a-zA-Z0-9_:] name. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char ch : name) {
        unsigned char u = static_cast<unsigned char>(ch);
        if (std::isalnum(u) || ch == '_' || ch == ':')
            out.push_back(ch);
        else
            out.push_back('_');
    }
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
        out.insert(out.begin(), '_');
    return out;
}

/** Shortest round-trip decimal; Prometheus reads +Inf specially. */
std::string
promNumber(double value)
{
    if (std::isinf(value))
        return value > 0 ? "+Inf" : "-Inf";
    if (std::isnan(value))
        return "NaN";
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << value;
    return out.str();
}

} // anonymous namespace

std::string
Registry::prometheusText() const
{
    // Same locking discipline as snapshot(): copy the stable metric
    // pointers under the registry lock, fold each metric outside it.
    std::vector<std::pair<std::string, const Counter *>> counters;
    std::vector<std::pair<std::string, const Gauge *>> gauges;
    std::vector<std::pair<std::string, const Timer *>> timers;
    std::vector<std::pair<std::string, const Histogram *>> histograms;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[name, c] : counters_)
            counters.emplace_back(name, c.get());
        for (const auto &[name, g] : gauges_)
            gauges.emplace_back(name, g.get());
        for (const auto &[name, t] : timers_)
            timers.emplace_back(name, t.get());
        for (const auto &[name, h] : histograms_)
            histograms.emplace_back(name, h.get());
    }

    std::ostringstream out;
    for (const auto &[name, c] : counters) {
        std::string metric = promName(name) + "_total";
        out << "# TYPE " << metric << " counter\n";
        out << metric << ' ' << c->value() << '\n';
    }
    for (const auto &[name, g] : gauges) {
        std::string metric = promName(name);
        out << "# TYPE " << metric << " gauge\n";
        out << metric << ' ' << promNumber(g->value()) << '\n';
    }
    for (const auto &[name, t] : timers) {
        TimerStats stats = t->stats();
        std::string metric = promName(name) + "_ms";
        out << "# TYPE " << metric << " summary\n";
        out << metric << "_sum " << promNumber(stats.totalMs) << '\n';
        out << metric << "_count " << stats.count << '\n';
    }
    for (const auto &[name, h] : histograms) {
        HistogramStats stats = h->stats();
        std::string metric = promName(name);
        out << "# TYPE " << metric << " histogram\n";
        for (const HistogramBucket &bucket : h->cumulativeBuckets()) {
            out << metric << "_bucket{le=\""
                << promNumber(bucket.upperBound) << "\"} "
                << bucket.cumulativeCount << '\n';
        }
        if (stats.count == 0)
            out << metric << "_bucket{le=\"+Inf\"} 0\n";
        out << metric << "_sum " << promNumber(stats.total) << '\n';
        out << metric << "_count " << stats.count << '\n';
    }
    return out.str();
}

} // namespace sdnav::obs
