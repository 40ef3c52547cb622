/**
 * @file
 * rca: repeated rca::Analyzer::analyze(kFull) over a seeded 160k-row
 * drift log with planted weather causes (the Fig 9d scale, the shape
 * of `nazar_ops gen-log`), the runtime pool pinned to two threads.
 * Level-k FIM counting and the drift-log id scans do most of the work.
 */
#include "bench_common.h"
#include "common/rng.h"
#include "common/sim_date.h"
#include "driftlog/drift_log.h"
#include "rca/analyzer.h"
#include "runtime/thread_pool.h"

namespace nbench {

namespace {

using namespace nazar;

constexpr int kThreads = 2;
/** Set-ups (log builds, ~0.5 s each) spread across the timed phase. */
constexpr int kSetupReps = 8;

/** Same generator shape as `nazar_ops gen-log`: weather drifts are the
 *  planted causes, everything else is false-positive noise. */
driftlog::DriftLog
makeLog(size_t rows, uint64_t seed)
{
    Rng rng(seed);
    const char *weathers[] = {"clear-day", "rain", "snow", "fog"};
    const char *locations[] = {"new_york", "tibet", "beijing",
                               "new_south_wales", "united_kingdom",
                               "quebec", "sao_paulo"};
    driftlog::DriftLog log;
    for (size_t i = 0; i < rows; ++i) {
        driftlog::DriftLogEntry e;
        e.time = SimDate(static_cast<int>(i % 112),
                         static_cast<int>(rng.uniformInt(0, 86399)));
        int device = static_cast<int>(rng.index(112));
        e.deviceId = "android_" + std::to_string(device);
        e.deviceModel = "model_" + std::to_string(device % 4);
        e.location = locations[rng.index(7)];
        size_t w = rng.index(4);
        e.weather = weathers[w];
        e.drift = w != 0 ? rng.bernoulli(0.7) : rng.bernoulli(0.2);
        log.add(e);
    }
    return log;
}

std::string
causesText(const std::vector<rca::RankedCause> &causes)
{
    std::string out;
    for (const auto &c : causes) {
        char buf[160];
        std::snprintf(buf, sizeof buf, " %zu/%zu %.17g %.17g %.17g %.17g;",
                      c.metrics.setCount, c.metrics.setDriftCount,
                      c.metrics.occurrence, c.metrics.support,
                      c.metrics.confidence, c.metrics.riskRatio);
        out += c.attrs.toString() + buf;
    }
    return out;
}

/**
 * Time analyze() until @p seconds have passed (at least 3 calls),
 * calling @p between before each call. Every call must find the same
 * causes.
 */
template <typename Between>
std::vector<double>
repeat(const rca::Analyzer &analyzer, const driftlog::DriftLog &log,
       double seconds, const std::string &expect, Report &report,
       Between between)
{
    std::vector<double> ms;
    auto start = Clock::now();
    while (ms.size() < 3 || msSince(start) < seconds * 1e3) {
        between();
        auto t0 = Clock::now();
        rca::AnalysisResult result =
            analyzer.analyze(log.table(), rca::AnalysisMode::kFull);
        ms.push_back(msSince(t0));
        report.attempted(1);
        report.check(causesText(result.rootCauses) == expect,
                     "rca: root causes differ from warm-up");
    }
    return ms;
}

} // namespace

void
runRca(const Options &opts, Report &report)
{
    runtime::setThreads(kThreads);
    report.info("host", hostJson(opts, kThreads, 0, ""));
    const size_t rows = opts.tiny ? 8000 : 160000;

    driftlog::DriftLog log;
    auto build = [&] { log = makeLog(rows, deriveSeed(opts.seed, 1)); };
    // The traced run sets up once.
    SetupSchedule setups(opts.trace ? 0 : kSetupReps);
    setups.time(build);
    rca::RcaConfig config;
    config.attributeColumns =
        driftlog::DriftLog::defaultAttributeColumns();
    rca::Analyzer analyzer(config);

    // Warm-up fixes the reference cause list.
    rca::AnalysisResult warm =
        analyzer.analyze(log.table(), rca::AnalysisMode::kFull);
    const std::string expect = causesText(warm.rootCauses);
    report.attempted(1);
    report.check(!warm.rootCauses.empty(), "rca: no root cause found");
    report.info("root_causes", std::to_string(warm.rootCauses.size()));

    std::map<std::string, double> layers;
    std::vector<double> ms;
    // Between two calls, the log is rebuilt on the set-up schedule; the
    // old one goes first, so only one is ever held.
    auto between = [&] {
        if (setups.due()) {
            log = driftlog::DriftLog();
            setups.time(build);
        }
    };
    setups.start(opts.seconds);
    if (!opts.trace) {
        ms = repeat(analyzer, log, opts.seconds, expect, report, between);
    } else {
        std::vector<double> plain =
            repeat(analyzer, log, opts.seconds / 2, expect, report, between);
        resetObs();
        obs::setThreadName("main");
        obs::setTracing(true);
        ms = repeat(analyzer, log, opts.seconds / 2, expect, report,
                    between);
        obs::setTracing(false);
        ObsView v;
        const double n = static_cast<double>(ms.size());
        uint64_t chunks = v.counter("runtime.chunks.inline") +
                          v.counter("runtime.chunks.caller") +
                          v.counter("runtime.chunks.worker");
        layers = {
            {"rca.fim.level1_ms", v.spanMs("rca.fim.level1") / n},
            {"rca.fim.levelk_ms", v.spanMs("rca.fim.levelk") / n},
            {"rca.walk_ms", v.spanMs("rca.walk") / n},
            {"rca.metrics_ms", v.spanMs("rca.metrics") / n},
            {"rca.unattributed_ms",
             (v.spanMs("rca.analyze") - v.spanMs("rca.fim.level1") -
              v.spanMs("rca.fim.levelk") - v.spanMs("rca.walk")) /
                 n},
            {"rca.causes_accepted", v.counter("rca.causes_accepted") / n},
            {"runtime.batches", v.counter("runtime.batches") / n},
            {"runtime.batch_ms", v.spanMs("runtime.batch.seconds") / n},
            {"runtime.inline_chunk_share",
             chunks ? double(v.counter("runtime.chunks.inline")) / chunks
                    : 0.0},
            {"driftlog.build_ms", setups.times().front() * 1e3},
            {"obs.trace_overhead_share", median(ms) / median(plain) - 1.0},
            {"obs.trace_dropped", double(obs::traceDropped())},
        };
    }

    // After timing: the dictionary-id miner must equal the retained
    // Value-comparing oracle on the same log.
    rca::Fim fim(log.table(), config);
    bool same = causesText(fim.mine()) == causesText(fim.mineReference());
    report.attempted(1);
    report.check(same, "rca: Fim::mine differs from Fim::mineReference");

    report.info("analyze_ms", sampleSummary(ms));
    report.info("rows", std::to_string(rows));
    if (opts.trace) {
        reportLayers(report, layers);
        writeTrace(report, opts);
        return;
    }
    double p50 = median(ms);
    report.metric("throughput_per_s",
                  static_cast<double>(rows) / (p50 / 1e3), "1/s");
    report.metric("latency_p50_ms", p50, "ms");
    report.info("setup_s", sampleSummary(setups.times()));
    report.metric("setup_s", median(setups.times()), "s");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace nbench
