/**
 * @file
 * §5.8 "Runtime": wall-clock decomposition of one full Nazar analysis
 * cycle (root-cause analysis vs by-cause adaptation).
 *
 * Paper result: of a ~50-minute end-to-end cycle, root-cause analysis
 * takes only ~46 seconds — adaptation utterly dominates and is the
 * component one scales out with more GPU instances. The absolute
 * numbers here are simulator-scale; the claim under test is the
 * *ratio*.
 */
#include <chrono>

#include "bench_util.h"

#include "common/table_printer.h"
#include "sim/cloud.h"

using namespace nazar;

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::MetricsExport metrics(argc, argv);
    bench::printHeader("§5.8", "cycle runtime: RCA vs adaptation");
    bench::printPaperNote("RCA ~46s of a ~50min cycle: adaptation "
                          "dominates (>95% of the cycle)");

    data::AppSpec app = data::makeAnimalsApp();
    nn::Classifier base = bench::trainBase(app);

    sim::CloudConfig config;
    config.minAdaptSamples = 24;
    // A heavier adaptation budget, mimicking the GPU-scale stage.
    config.adapt.steps = 30;

    TablePrinter t({"run", "entries", "causes", "RCA (s)",
                    "adaptation (s)", "RCA share"});
    Rng rng(111);
    data::Corruptor corruptor(app.domain.featureDim());
    const char *weathers[] = {"clear-day", "rain", "snow", "fog"};

    for (int run = 0; run < 4; ++run) {
        sim::Cloud cloud(config, base);
        const size_t entries = 6000;
        std::vector<persist::IngestRecord> batch;
        batch.reserve(entries);
        for (size_t i = 0; i < entries; ++i) {
            size_t w = rng.index(4);
            driftlog::DriftLogEntry e;
            e.time = SimDate(static_cast<int>(i % 14));
            int device = static_cast<int>(rng.index(112));
            e.deviceId = data::deviceName(device);
            e.deviceModel = data::deviceModel(device);
            e.location = app.locations[rng.index(7)].name;
            e.weather = weathers[w];
            e.drift = w != 0 ? rng.bernoulli(0.7) : rng.bernoulli(0.2);

            int label =
                static_cast<int>(rng.index(app.domain.numClasses()));
            std::vector<double> x = app.domain.sample(label, rng);
            if (w != 0) {
                x = corruptor.apply(
                    x, data::weatherCorruption(
                           static_cast<data::Weather>(w)),
                    3, rng);
            }
            rca::AttributeSet context({
                {driftlog::columns::kWeather, driftlog::Value(e.weather)},
                {driftlog::columns::kLocation,
                 driftlog::Value(e.location)},
                {driftlog::columns::kDeviceId,
                 driftlog::Value(e.deviceId)},
                {driftlog::columns::kDeviceModel,
                 driftlog::Value(e.deviceModel)},
            });
            batch.push_back(persist::IngestRecord{
                -1, 0, e, persist::UploadRecord{x, context, e.drift}});
        }
        cloud.ingestBatchFrom(std::move(batch));
        sim::CycleResult cycle = cloud.runCycle(base.bnPatch());
        double total = cycle.rcaSeconds + cycle.adaptSeconds;
        t.addRow({std::to_string(run),
                  std::to_string(entries),
                  std::to_string(cycle.analysis.rootCauses.size()),
                  TablePrinter::num(cycle.rcaSeconds, 3),
                  TablePrinter::num(cycle.adaptSeconds, 3),
                  TablePrinter::pct(total > 0.0
                                        ? cycle.rcaSeconds / total
                                        : 0.0)});
    }
    std::printf("%s", t.toString().c_str());
    std::printf("paper analog: RCA 46s / 50min cycle = 1.5%% share\n");
    return 0;
}
