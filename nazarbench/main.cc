/**
 * @file
 * nazar_bench — one workload per process.
 *
 *   nazar_bench --workload fleet|ingest|restart|rca --seed N
 *               --seconds S --trace 0|1 [--tiny]
 *               [--work-dir DIR] [--ingest-rate EV_PER_S]
 *
 * Prints `info <key> <json>` lines, then one JSON result line:
 * {"correct": .., "attempted": .., "failed": .., "metrics": {...}}.
 * --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
 * metrics of a traced run (plus a Perfetto trace in the work dir).
 * Exits non-zero, without a result line, when the workload throws.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "common/logging.h"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "nazar_bench: %s\nusage: nazar_bench --workload "
                 "fleet|ingest|restart|rca --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--work-dir DIR] "
                 "[--ingest-rate EV_PER_S]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    nbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                opts.workload = value();
            else if (arg == "--seed")
                opts.seed = std::stoull(value());
            else if (arg == "--seconds")
                opts.seconds = std::stod(value());
            else if (arg == "--trace")
                opts.trace = std::stoi(value()) != 0;
            else if (arg == "--tiny")
                opts.tiny = true;
            else if (arg == "--work-dir")
                opts.workDir = value();
            else if (arg == "--ingest-rate")
                opts.ingestRate = std::stod(value());
            else
                usage(("unknown argument " + arg).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (opts.seconds <= 0.0 || opts.ingestRate <= 0.0)
        usage("--seconds and --ingest-rate must be positive");

    // Library progress lines would interleave with the result.
    nazar::setLogLevel(nazar::LogLevel::kWarn);
    try {
        std::filesystem::create_directories(opts.workDir);
        nbench::Report report;
        if (opts.workload == "fleet")
            nbench::runFleet(opts, report);
        else if (opts.workload == "ingest")
            nbench::runIngest(opts, report);
        else if (opts.workload == "restart")
            nbench::runRestart(opts, report);
        else if (opts.workload == "rca")
            nbench::runRca(opts, report);
        else
            usage("unknown workload");
        report.print();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nazar_bench: %s failed: %s\n",
                     opts.workload.c_str(), e.what());
        return 1;
    }
    return 0;
}
