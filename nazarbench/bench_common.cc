#include "bench_common.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "obs/export.h"

namespace nbench {

namespace fs = std::filesystem;

namespace {

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        check(false, "metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_.push_back({name, value, unit});
}

void
Report::check(bool ok, const std::string &what, uint64_t ops)
{
    if (ok)
        return;
    correct_ = false;
    failed_ += ops;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void
Report::info(const std::string &key, const std::string &json_value)
{
    info_.emplace_back(key, json_value);
}

void
Report::print() const
{
    for (const auto &[key, value] : info_)
        std::printf("info %s %s\n", key.c_str(), value.c_str());
    std::string line = "{\"correct\": ";
    line += correct_ ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(std::max<uint64_t>(
                                      attempted_, 1));
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        if (i)
            line += ", ";
        line += jsonString(m.name) + ": {\"value\": " +
                jsonNumber(m.value);
        if (!m.unit.empty())
            line += ", \"unit\": " + jsonString(m.unit);
        line += "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

std::string
sampleSummary(const std::vector<double> &xs)
{
    double mx = xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
    return "{\"n\": " + std::to_string(xs.size()) +
           ", \"p50\": " + jsonNumber(quantile(xs, 0.5)) +
           ", \"p90\": " + jsonNumber(quantile(xs, 0.9)) +
           ", \"p99\": " + jsonNumber(quantile(xs, 0.99)) +
           ", \"max\": " + jsonNumber(mx) + "}";
}

void
Digest::bytes(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 1099511628211ULL;
    }
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 finalizer over (seed, stream).
    uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
ObsView::spanMs(const std::string &name) const
{
    auto it = snap_.histograms.find(name);
    return it == snap_.histograms.end() ? 0.0 : it->second.sum * 1e3;
}

uint64_t
ObsView::spanCount(const std::string &name) const
{
    auto it = snap_.histograms.find(name);
    return it == snap_.histograms.end() ? 0 : it->second.count;
}

uint64_t
ObsView::counter(const std::string &name) const
{
    auto it = snap_.counters.find(name);
    return it == snap_.counters.end() ? 0 : it->second;
}

void
resetObs()
{
    nazar::obs::Registry::global().reset();
    nazar::obs::clearTrace();
}

double
uncoveredMs(const std::vector<nazar::obs::TraceEvent> &events,
            const std::string &outer,
            const std::vector<std::string> &inner)
{
    using Interval = std::pair<double, double>;
    std::map<size_t, std::vector<Interval>> covered;
    for (const auto &e : events)
        if (std::find(inner.begin(), inner.end(), e.name) != inner.end())
            covered[e.threadId].emplace_back(
                e.startSeconds, e.startSeconds + e.durationSeconds);
    for (auto &[tid, v] : covered)
        std::sort(v.begin(), v.end());
    double total = 0.0;
    for (const auto &e : events) {
        if (outer != e.name)
            continue;
        const double s = e.startSeconds;
        const double t = s + e.durationSeconds;
        // Walk the sorted intervals clipped to [s, t], merging overlaps.
        double free = t - s;
        double reach = s;
        for (const auto &[a, b] : covered[e.threadId]) {
            if (a >= t)
                break;
            if (b <= reach)
                continue;
            const double lo = std::max(a, reach);
            const double hi = std::min(b, t);
            if (hi > lo) {
                free -= hi - lo;
                reach = hi;
            }
        }
        total += free;
    }
    return total * 1e3;
}

std::vector<double>
eventDurationsMs(const std::vector<nazar::obs::TraceEvent> &events,
                 const std::string &name)
{
    std::vector<double> out;
    for (const auto &e : events)
        if (name == e.name)
            out.push_back(e.durationSeconds * 1e3);
    return out;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
fsType(const std::string &path)
{
    struct statfs st{};
    if (statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0xEF53UL:     return "ext4";
      case 0x01021994UL: return "tmpfs";
      case 0x794C7630UL: return "overlayfs";
      case 0x58465342UL: return "xfs";
      case 0x9123683EUL: return "btrfs";
      default:           return "other";
    }
}

std::string
hostJson(const Options &opts, int pinned_threads, int connections,
         const std::string &state_dir)
{
    std::string fs_name =
        state_dir.empty() ? std::string("none") : fsType(state_dir);
    return "{\"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"pinned_threads\": " + std::to_string(pinned_threads) +
           ", \"connections\": " + std::to_string(connections) +
           ", \"state_dir_fs\": " + jsonString(fs_name) +
           ", \"build_type\": " + jsonString(NAZARBENCH_BUILD_TYPE) +
           ", \"compiler\": " + jsonString(__VERSION__) +
           ", \"workload\": " + jsonString(opts.workload) +
           ", \"seed\": " + std::to_string(opts.seed) +
           ", \"seconds\": " + jsonNumber(opts.seconds) +
           ", \"tiny\": " + (opts.tiny ? "true" : "false") + "}";
}

uint64_t
dirBytes(const std::string &dir)
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry : fs::recursive_directory_iterator(dir, ec))
        if (entry.is_regular_file(ec))
            total += entry.file_size(ec);
    return total;
}

void
reportLayers(Report &report, const std::map<std::string, double> &values)
{
    for (const auto &[name, value] : values)
        report.metric(name, value);
}

void
writeTrace(Report &report, const Options &opts)
{
    std::string path = opts.workDir + "/" + opts.workload + ".trace.json";
    nazar::obs::writeTraceFile(path);
    report.info("trace_file",
                "{\"path\": " + jsonString(path) + ", \"events\": " +
                    std::to_string(nazar::obs::traceEvents().size()) +
                    ", \"dropped\": " +
                    std::to_string(nazar::obs::traceDropped()) + "}");
}

} // namespace nbench
