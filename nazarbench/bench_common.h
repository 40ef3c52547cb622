/**
 * @file
 * Shared plumbing for the nazarbench workloads: options, the result
 * report (metrics, checks, info lines), order statistics, a digest,
 * obs-registry readers and the host block.
 *
 * Every workload runs in its own process and follows the same shape:
 * set up, warm up, then repeat its operation until the timed phase
 * ends, setting up again at even intervals in between (a SetupSchedule),
 * so each end-to-end metric, setup_s too, is a median or a ratio of
 * sums over many repetitions spread across the whole phase. A traced
 * invocation (--trace 1) instead reports the per-layer metrics read
 * from the obs registry and the trace rings.
 */
#ifndef NAZARBENCH_BENCH_COMMON_H
#define NAZARBENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace nbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p a to @p b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point a)
{
    return msBetween(a, Clock::now());
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;   ///< Length of the timed phase.
    bool trace = false;      ///< Per-layer (traced) invocation.
    bool tiny = false;       ///< Smoke-test sizes (seconds stay honoured).
    std::string workDir = ".bench_out"; ///< State dirs and trace files.
    double ingestRate = 8000.0; ///< Offered load of ingest phase A (ev/s).
};

/** One named number of the final result line; per-layer metrics
 *  carry no unit here (run.py adds it from BENCHMARK.json). */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload hands back: the metrics of the invocation, the
 * correctness verdict with operation counts, and free-form info
 * lines (sample counts, host block, notes) printed before the final
 * JSON line.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit = "");

    /** Record one correctness check; a failed check counts
     *  @p ops failed operations and clears `correct`. */
    void check(bool ok, const std::string &what, uint64_t ops = 1);

    void attempted(uint64_t n) { attempted_ += n; }

    void info(const std::string &key, const std::string &json_value);

    /** Print the info lines, then the one-line JSON result. */
    void print() const;

  private:
    bool correct_ = true;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> info_;
};

// ---- Order statistics ------------------------------------------------

/** Linear-interpolated q-quantile (q in [0,1]) of @p xs (copied). */
double quantile(std::vector<double> xs, double q);

inline double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

/** {"n":..,"p50":..,"p90":..,"p99":..,"max":..} for an info line. */
std::string sampleSummary(const std::vector<double> &xs);

// ---- Digests ---------------------------------------------------------

/** FNV-1a 64 accumulator. */
class Digest
{
  public:
    void bytes(const void *data, size_t n);
    void str(const std::string &s) { bytes(s.data(), s.size()); }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ULL;
};

/** Mix a user seed into a derived 64-bit stream seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

// ---- Obs registry readers -------------------------------------------

/** Read-side view of one registry snapshot. */
class ObsView
{
  public:
    ObsView() : snap_(nazar::obs::Registry::global().snapshot()) {}

    /** Span (histogram) total in milliseconds; 0 when absent. */
    double spanMs(const std::string &name) const;
    uint64_t spanCount(const std::string &name) const;
    uint64_t counter(const std::string &name) const;

  private:
    nazar::obs::Snapshot snap_;
};

/** Zero the registry and the trace rings (between measured phases). */
void resetObs();

/**
 * Unattributed time (ms): the summed duration of every trace event
 * named @p outer minus the part of it that events named in @p inner
 * cover on the same thread. Time the thread spent waiting (for pool
 * workers, say) counts as unattributed.
 */
double uncoveredMs(const std::vector<nazar::obs::TraceEvent> &events,
                   const std::string &outer,
                   const std::vector<std::string> &inner);

/** Exact durations (ms) of every trace event named @p name. */
std::vector<double>
eventDurationsMs(const std::vector<nazar::obs::TraceEvent> &events,
                 const std::string &name);

// ---- Process and host ------------------------------------------------

/**
 * The set-up times of one run. A workload times its first set-up with
 * time(), then calls start() when its timed phase begins. Between two
 * timed operations it asks due() and, when that is true, times one
 * more set-up; the @p reps set-ups so scheduled are spread evenly
 * across the phase (the k-th once k/reps of it has passed). setup_s is
 * the median of all of them, so it samples the whole phase, not one
 * instant.
 */
class SetupSchedule
{
  public:
    explicit SetupSchedule(int reps) : reps_(reps) {}

    /** Time @p setup now and record it. */
    template <typename F>
    void
    time(F &&setup)
    {
        auto t0 = Clock::now();
        setup();
        times_.push_back(msSince(t0) / 1e3);
    }

    void
    start(double seconds)
    {
        start_ = Clock::now();
        seconds_ = seconds;
    }

    /** True, once per scheduled set-up, when the next one is due. */
    bool
    due()
    {
        if (done_ >= reps_ ||
            msSince(start_) < done_ * seconds_ * 1e3 / reps_)
            return false;
        ++done_;
        return true;
    }

    /** Every recorded set-up time (seconds). */
    const std::vector<double> &times() const { return times_; }

  private:
    int reps_;
    int done_ = 0;
    Clock::time_point start_ = Clock::now();
    double seconds_ = 0.0;
    std::vector<double> times_;
};

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMb();

/** Filesystem type name of @p path (statfs magic), e.g. "ext4". */
std::string fsType(const std::string &path);

/** The host block: nproc, pinned pool threads, state-dir fs, build. */
std::string hostJson(const Options &opts, int pinned_threads,
                     int connections, const std::string &state_dir);

/** Bytes under @p dir (regular files, recursive). */
uint64_t dirBytes(const std::string &dir);

/**
 * Report the per-layer metrics this workload exercised. BENCHMARK.json
 * is the catalogue: run.py adds the units, fills every layer a
 * workload does not exercise with 0 and refuses a name it lacks.
 */
void reportLayers(Report &report,
                  const std::map<std::string, double> &values);

/** Write the trace rings as a Perfetto-loadable file; info line. */
void writeTrace(Report &report, const Options &opts);

// ---- Workloads -------------------------------------------------------

void runFleet(const Options &opts, Report &report);
void runIngest(const Options &opts, Report &report);
void runRestart(const Options &opts, Report &report);
void runRca(const Options &opts, Report &report);

} // namespace nbench

#endif // NAZARBENCH_BENCH_COMMON_H
