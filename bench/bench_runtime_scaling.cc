/**
 * @file
 * Runtime scaling benchmark, reported as JSON:
 *
 *  - `results`: a square matmul and end-to-end window throughput at
 *    1/2/4/8 threads, each against the 1-thread baseline (the base
 *    model is trained once, outside the timed runs);
 *  - `kernel_shapes`: the three Matrix products at the nn layer's
 *    shapes (1, 32 and 64 rows by 96 x 96, and 256 rows to bracket
 *    the pool cutoff) at 1 and 2 threads, as
 *    GFLOPS of the plain-loop oracle (tests/matrix_oracle.h, the loops
 *    the gemm kernel replaced) and of the product itself. The 2-thread
 *    rows are what sets the pool cutoff in nn/matrix.cc.
 *
 * Usage: bench_runtime_scaling [--quick]
 *   --quick shrinks the workload (CI smoke run).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/export.h"
#include "data/apps.h"
#include "matrix_oracle.h"
#include "nn/classifier.h"
#include "nn/gemm.h"
#include "nn/matrix.h"
#include "runtime/thread_pool.h"
#include "sim/runner.h"

namespace {

using nazar::Rng;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Multiply-accumulate throughput of the row-partitioned matmul. */
double
matmulGflops(size_t dim, int reps)
{
    Rng rng(7);
    nazar::nn::Matrix a =
        nazar::nn::Matrix::randomNormal(dim, dim, 1.0, rng);
    nazar::nn::Matrix b =
        nazar::nn::Matrix::randomNormal(dim, dim, 1.0, rng);
    double sink = 0.0;
    auto start = Clock::now();
    for (int i = 0; i < reps; ++i)
        sink += a.matmul(b)(0, 0);
    double secs = secondsSince(start);
    volatile double consume = sink;
    (void)consume;
    double flops = 2.0 * static_cast<double>(dim) * dim * dim * reps;
    return flops / secs / 1e9;
}

/** One of the three products, as the Matrix method or its oracle. */
struct Product
{
    const char *name;
    nazar::nn::Matrix (*kernel)(const nazar::nn::Matrix &,
                                const nazar::nn::Matrix &);
    nazar::nn::Matrix (*oracle)(const nazar::nn::Matrix &,
                                const nazar::nn::Matrix &);
    bool transposeA; ///< Operand a is stored k x m.
    bool transposeB; ///< Operand b is stored n x k.
};

const Product kProducts[] = {
    {"matmul",
     [](const nazar::nn::Matrix &a, const nazar::nn::Matrix &b) {
         return a.matmul(b);
     },
     &nazar::nn::oracle::matmul, false, false},
    {"transpose_matmul",
     [](const nazar::nn::Matrix &a, const nazar::nn::Matrix &b) {
         return a.transposeMatmul(b);
     },
     &nazar::nn::oracle::transposeMatmul, true, false},
    {"matmul_transpose",
     [](const nazar::nn::Matrix &a, const nazar::nn::Matrix &b) {
         return a.matmulTranspose(b);
     },
     &nazar::nn::oracle::matmulTranspose, false, true},
};

/** Median GFLOPS of one shape: the oracle, and the product at 1 and
 *  at 2 pool threads. */
struct ShapeTiming
{
    double oracle;
    double kernel[2];
};

/**
 * Times one product on an m x k by k x n shape in 5 rounds; each round
 * times the oracle, then the product at 1 and at 2 threads, so drift
 * on a shared host hits all three alike, and each figure is the median
 * round. a is ReLU-like (about half zeros), as the nn layer's
 * activations are.
 */
ShapeTiming
timeShape(const Product &product, size_t m, size_t k, size_t n,
          bool quick)
{
    using nazar::nn::Matrix;
    Rng rng(11);
    Matrix a = Matrix::randomNormal(product.transposeA ? k : m,
                                    product.transposeA ? m : k, 1.0, rng);
    for (size_t i = 0; i < a.size(); ++i)
        a.data()[i] = a.data()[i] > 0.0 ? a.data()[i] : 0.0;
    const Matrix b =
        Matrix::randomNormal(product.transposeB ? n : k,
                             product.transposeB ? k : n, 1.0, rng);
    const double flops = 2.0 * static_cast<double>(m * k * n);
    const int reps = static_cast<int>(
        std::max(2.0, (quick ? 1e7 : 2e8) / flops));
    double sink = 0.0;
    auto gflops = [&](auto fn) {
        auto start = Clock::now();
        for (int i = 0; i < reps; ++i)
            sink += fn(a, b)(0, 0);
        return flops * reps / secondsSince(start) / 1e9;
    };
    std::vector<double> rounds[3];
    for (int round = 0; round < 5; ++round) {
        nazar::runtime::setThreads(1);
        rounds[0].push_back(gflops(product.oracle));
        rounds[1].push_back(gflops(product.kernel));
        nazar::runtime::setThreads(2);
        rounds[2].push_back(gflops(product.kernel));
    }
    volatile double consume = sink;
    (void)consume;
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    return {median(rounds[0]), {median(rounds[1]), median(rounds[2])}};
}

/** The end-to-end row's fleet: a small animals deployment. */
struct E2eFleet
{
    explicit E2eFleet(bool quick)
        : app(nazar::data::makeAnimalsApp(13, 8)),
          weather(app.locations, 21, 2020)
    {
        config.arch = nazar::nn::Architecture::kResNet18;
        config.strategy = nazar::sim::Strategy::kNazar;
        config.windows = 3;
        config.workload.days = 21;
        config.workload.devicesPerLocation = quick ? 3 : 8;
        config.workload.imagesPerDevicePerDay = quick ? 3.0 : 8.0;
        config.train.epochs = quick ? 10 : 20;
        config.cloud.minAdaptSamples = 16;
        config.uploadSampleRate = 0.5;
        config.seed = 17;
        // Train the base once, before any clock starts, so the rows
        // time the monitoring loop rather than supervised training.
        nazar::Rng rng(config.seed);
        nazar::data::Dataset train =
            app.domain.makeBalancedDataset(app.trainPerClass, rng);
        base = std::make_unique<nazar::nn::Classifier>(
            config.arch, app.domain.featureDim(), app.domain.numClasses(),
            config.seed);
        base->trainSupervised(train.x, train.labels, config.train);
    }

    nazar::data::AppSpec app;
    nazar::data::WeatherModel weather;
    nazar::sim::RunnerConfig config;
    std::unique_ptr<nazar::nn::Classifier> base;
};

/** Events per second through the full Nazar loop over @p fleet's
 *  pretrained base. */
double
e2eEventsPerSec(const E2eFleet &fleet)
{
    nazar::sim::Runner runner(fleet.app, fleet.weather, fleet.config,
                              fleet.base.get());
    auto start = Clock::now();
    nazar::sim::RunResult result = runner.run();
    double secs = secondsSince(start);
    size_t events = 0;
    for (const auto &w : result.windows)
        events += w.events;
    return static_cast<double>(events) / secs;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string metrics_out;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0)
            metrics_out = argv[i] + 14;
    }

    nazar::setLogLevel(nazar::LogLevel::kSilent);

    const size_t dim = quick ? 192 : 384;
    const int reps = quick ? 4 : 8;
    const std::vector<size_t> thread_counts = {1, 2, 4, 8};

    struct Row
    {
        size_t threads;
        double gflops;
        double eventsPerSec;
    };
    const E2eFleet fleet(quick);
    std::vector<Row> rows;
    for (size_t threads : thread_counts) {
        nazar::runtime::setThreads(threads);
        Row row;
        row.threads = threads;
        row.gflops = matmulGflops(dim, reps);
        row.eventsPerSec = e2eEventsPerSec(fleet);
        rows.push_back(row);
    }

    struct ShapeRow
    {
        const char *product;
        size_t m;
        ShapeTiming timing;
    };
    const size_t kDim = 96; // ResNet50-shaped hidden width
    std::vector<ShapeRow> shape_rows;
    for (const Product &product : kProducts)
        for (size_t m : {1, 32, 64, 256})
            shape_rows.push_back(
                {product.name, m, timeShape(product, m, kDim, kDim, quick)});
    nazar::runtime::setThreads(0);

    std::printf("{\n");
    std::printf("  \"bench\": \"runtime_scaling\",\n");
    std::printf("  \"matmul_dim\": %zu,\n", dim);
    std::printf("  \"hardware_concurrency\": %u,\n",
                std::thread::hardware_concurrency());
    std::printf("  %s,\n", nazar::bench::hostMetaJson().c_str());
    std::printf("  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::printf("    {\"threads\": %zu, \"matmul_gflops\": %.3f, "
                    "\"matmul_speedup\": %.2f, "
                    "\"e2e_events_per_sec\": %.1f, "
                    "\"e2e_speedup\": %.2f}%s\n",
                    r.threads, r.gflops, r.gflops / rows[0].gflops,
                    r.eventsPerSec, r.eventsPerSec / rows[0].eventsPerSec,
                    i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"gemm_variant\": \"%s\",\n",
                nazar::cpu_dispatch::active<nazar::nn::gemm::Kernels>().isa);
    std::printf("  \"kernel_shapes\": [\n");
    for (size_t i = 0; i < shape_rows.size(); ++i) {
        const ShapeRow &r = shape_rows[i];
        for (size_t t = 0; t < 2; ++t)
            std::printf("    {\"product\": \"%s\", \"m\": %zu, \"k\": %zu, "
                        "\"n\": %zu, \"threads\": %zu, "
                        "\"oracle_gflops\": %.3f, \"kernel_gflops\": %.3f, "
                        "\"kernel_speedup\": %.2f}%s\n",
                        r.product, r.m, kDim, kDim, t + 1, r.timing.oracle,
                        r.timing.kernel[t],
                        r.timing.kernel[t] / r.timing.oracle,
                        i + 1 < shape_rows.size() || t == 0 ? "," : "");
    }
    std::printf("  ]\n}\n");
    if (!metrics_out.empty())
        nazar::obs::writeMetricsFile(metrics_out);
    return 0;
}
