/**
 * @file
 * Implementation of the Classifier facade.
 */
#include "classifier.h"

#include <cmath>
#include <iomanip>
#include <istream>
#include <numeric>
#include <ostream>

#include "common/error.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace nazar::nn {

std::string
toString(Architecture arch)
{
    switch (arch) {
      case Architecture::kResNet18: return "ResNet18";
      case Architecture::kResNet34: return "ResNet34";
      case Architecture::kResNet50: return "ResNet50";
    }
    return "?";
}

std::vector<size_t>
hiddenDims(Architecture arch)
{
    switch (arch) {
      case Architecture::kResNet18: return {48, 48};
      case Architecture::kResNet34: return {64, 64, 64};
      case Architecture::kResNet50: return {96, 96, 96, 96};
    }
    return {};
}

namespace {

void
checkDims(size_t input_dim, size_t num_classes)
{
    NAZAR_CHECK(input_dim > 0, "input dim must be positive");
    NAZAR_CHECK(num_classes >= 2, "need at least two classes");
}

/**
 * The layer chain of (arch, dims): Linear->BatchNorm1d->Relu per hidden
 * width, then the output Linear. @p linear(in, out) makes each Linear,
 * in network order.
 */
template <typename MakeLinear>
std::unique_ptr<Sequential>
buildChain(Architecture arch, size_t input_dim, size_t num_classes,
           MakeLinear &&linear)
{
    auto net = std::make_unique<Sequential>();
    size_t prev = input_dim;
    for (size_t h : hiddenDims(arch)) {
        net->add(linear(prev, h));
        net->add(std::make_unique<BatchNorm1d>(h));
        net->add(std::make_unique<Relu>(h));
        prev = h;
    }
    net->add(linear(prev, num_classes));
    return net;
}

} // namespace

Classifier::Classifier(Architecture arch, size_t input_dim,
                       size_t num_classes, uint64_t seed)
    : arch_(arch), inputDim_(input_dim), numClasses_(num_classes)
{
    checkDims(input_dim, num_classes);
    Rng rng(seed);
    net_ = buildChain(arch, input_dim, num_classes,
                      [&](size_t in, size_t out) {
                          return std::make_unique<Linear>(in, out, rng);
                      });
}

Classifier::Classifier(Architecture arch, size_t input_dim,
                       size_t num_classes, std::unique_ptr<Sequential> net)
    : arch_(arch), inputDim_(input_dim), numClasses_(num_classes),
      net_(std::move(net))
{
}

Classifier
Classifier::clone() const
{
    std::vector<const Linear *> linears;
    for (size_t i = 0; i < net_->layerCount(); ++i)
        if (const auto *l = dynamic_cast<const Linear *>(&net_->layer(i)))
            linears.push_back(l);
    size_t next = 0;
    Classifier copy(arch_, inputDim_, numClasses_,
                    buildChain(arch_, inputDim_, numClasses_,
                               [&](size_t, size_t) {
                                   const Linear &src = *linears.at(next++);
                                   return std::make_unique<Linear>(
                                       src.weight().value,
                                       src.bias().value);
                               }));
    bnPatch().apply(*copy.net_);
    return copy;
}

Matrix
Classifier::infer(const Matrix &x) const
{
    NAZAR_CHECK(x.cols() == inputDim_, "input width mismatch");
    return net_->infer(x);
}

Matrix
Classifier::infer(const Matrix &x, const BnPatch &patch) const
{
    NAZAR_CHECK(x.cols() == inputDim_, "input width mismatch");
    return net_->infer(x, &patch);
}

Matrix
Classifier::logits(const Matrix &x, Mode mode)
{
    if (mode == Mode::kEval)
        return infer(x);
    NAZAR_CHECK(x.cols() == inputDim_, "input width mismatch");
    return net_->forward(x, mode);
}

std::vector<int>
Classifier::predict(const Matrix &x) const
{
    Matrix z = infer(x);
    std::vector<int> out(z.rows());
    for (size_t r = 0; r < z.rows(); ++r)
        out[r] = static_cast<int>(z.argmaxRow(r));
    return out;
}

int
Classifier::predictOne(const std::vector<double> &x) const
{
    Matrix z = infer(Matrix::rowVector(x));
    return static_cast<int>(z.argmaxRow(0));
}

std::vector<double>
Classifier::mspScores(const Matrix &x) const
{
    return maxSoftmax(infer(x));
}

double
Classifier::accuracy(const Matrix &x, const std::vector<int> &labels) const
{
    NAZAR_CHECK(x.rows() == labels.size(), "label count mismatch");
    if (x.rows() == 0)
        return 0.0;
    std::vector<int> pred = predict(x);
    size_t correct = 0;
    for (size_t i = 0; i < pred.size(); ++i)
        if (pred[i] == labels[i])
            ++correct;
    return static_cast<double>(correct) / static_cast<double>(pred.size());
}

double
Classifier::trainSupervised(const Matrix &x, const std::vector<int> &labels,
                            const TrainConfig &config)
{
    NAZAR_CHECK(x.rows() == labels.size(), "label count mismatch");
    NAZAR_CHECK(x.rows() >= 2, "need at least two training samples");
    Rng rng(config.seed);
    Sgd opt(net_->params(Mode::kTrain), config.learningRate,
            config.momentum, config.weightDecay);

    std::vector<size_t> order(x.rows());
    std::iota(order.begin(), order.end(), 0);

    double last_epoch_loss = 0.0;
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        double epoch_loss = 0.0;
        size_t batches = 0;
        for (size_t start = 0; start < order.size();
             start += config.batchSize) {
            size_t end = std::min(order.size(), start + config.batchSize);
            if (end - start < 2)
                break; // BN needs >= 2 rows; drop the tail sliver
            std::vector<size_t> idx(order.begin() + start,
                                    order.begin() + end);
            Matrix xb = x.selectRows(idx);
            std::vector<int> yb(idx.size());
            for (size_t i = 0; i < idx.size(); ++i)
                yb[i] = labels[idx[i]];

            opt.zeroGrads();
            Matrix z = net_->forward(xb, Mode::kTrain);
            LossResult res = crossEntropy(z, yb);
            net_->backward(res.grad, Mode::kTrain);
            opt.step();

            epoch_loss += res.loss;
            ++batches;
        }
        last_epoch_loss = batches ? epoch_loss / batches : 0.0;
    }
    if (config.confidenceGain != 1.0)
        scaleLogits(config.confidenceGain);
    return last_epoch_loss;
}

double
Classifier::trainWithOutlierExposure(const Matrix &x,
                                     const std::vector<int> &labels,
                                     const Matrix &outlier_x,
                                     const TrainConfig &config,
                                     double lambda)
{
    NAZAR_CHECK(x.rows() == labels.size(), "label count mismatch");
    NAZAR_CHECK(outlier_x.rows() >= 2, "need outlier samples");
    NAZAR_CHECK(outlier_x.cols() == inputDim_,
                "outlier feature width mismatch");
    NAZAR_CHECK(lambda >= 0.0, "lambda must be non-negative");
    Rng rng(config.seed);
    Sgd opt(net_->params(Mode::kTrain), config.learningRate,
            config.momentum, config.weightDecay);

    std::vector<size_t> order(x.rows());
    std::iota(order.begin(), order.end(), 0);
    std::vector<size_t> outlier_order(outlier_x.rows());
    std::iota(outlier_order.begin(), outlier_order.end(), 0);

    const double inv_k = 1.0 / static_cast<double>(numClasses_);
    double last_epoch_loss = 0.0;
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        rng.shuffle(outlier_order);
        double epoch_loss = 0.0;
        size_t batches = 0;
        size_t outlier_cursor = 0;
        for (size_t start = 0; start < order.size();
             start += config.batchSize) {
            size_t end = std::min(order.size(), start + config.batchSize);
            if (end - start < 2)
                break;
            std::vector<size_t> idx(order.begin() + start,
                                    order.begin() + end);
            Matrix xb = x.selectRows(idx);
            std::vector<int> yb(idx.size());
            for (size_t i = 0; i < idx.size(); ++i)
                yb[i] = labels[idx[i]];

            // Clean step: standard cross-entropy.
            opt.zeroGrads();
            Matrix z = net_->forward(xb, Mode::kTrain);
            LossResult clean = crossEntropy(z, yb);
            net_->backward(clean.grad, Mode::kTrain);

            // Outlier step: CE toward the uniform distribution
            // (grad = lambda * (softmax - 1/K) / batch).
            std::vector<size_t> oidx;
            size_t obatch = std::min<size_t>(config.batchSize / 2,
                                             outlier_order.size());
            obatch = std::max<size_t>(obatch, 2);
            for (size_t i = 0; i < obatch; ++i) {
                oidx.push_back(outlier_order[outlier_cursor]);
                outlier_cursor =
                    (outlier_cursor + 1) % outlier_order.size();
            }
            Matrix ob = outlier_x.selectRows(oidx);
            Matrix oz = net_->forward(ob, Mode::kTrain);
            Matrix lp = logSoftmax(oz);
            Matrix grad = lp.unaryOp([](double v) {
                return std::exp(v);
            });
            double uniform_loss = 0.0;
            for (size_t r = 0; r < oz.rows(); ++r)
                for (size_t c = 0; c < oz.cols(); ++c) {
                    uniform_loss -= inv_k * lp(r, c);
                    grad(r, c) = (grad(r, c) - inv_k);
                }
            uniform_loss /= static_cast<double>(oz.rows());
            grad *= lambda / static_cast<double>(oz.rows());
            net_->backward(grad, Mode::kTrain);

            opt.step();
            epoch_loss += clean.loss + lambda * uniform_loss;
            ++batches;
        }
        last_epoch_loss = batches ? epoch_loss / batches : 0.0;
    }
    if (config.confidenceGain != 1.0)
        scaleLogits(config.confidenceGain);
    return last_epoch_loss;
}

void
Classifier::scaleLogits(double gain)
{
    NAZAR_CHECK(gain > 0.0, "logit gain must be positive");
    // The output layer is the last layer of the chain.
    auto *out = dynamic_cast<Linear *>(&net_->layer(net_->layerCount() - 1));
    NAZAR_ASSERT(out != nullptr, "network must end in a Linear layer");
    out->weight().value *= gain;
    out->bias().value *= gain;
}

size_t
Classifier::parameterCount() const
{
    return const_cast<Sequential &>(*net_).parameterCount();
}

size_t
Classifier::bnParameterCount() const
{
    return bnPatch().scalarCount();
}

void
Classifier::save(std::ostream &os) const
{
    os << std::setprecision(17);
    os << "nazar-model 1\n";
    os << toString(arch_) << " " << inputDim_ << " " << numClasses_ << "\n";
    auto params = const_cast<Sequential &>(*net_).params(Mode::kTrain);
    os << params.size() << "\n";
    for (const Param *p : params) {
        os << p->value.rows() << " " << p->value.cols();
        for (size_t r = 0; r < p->value.rows(); ++r)
            for (size_t c = 0; c < p->value.cols(); ++c)
                os << " " << p->value(r, c);
        os << "\n";
    }
    bnPatch().save(os);
}

Classifier
Classifier::load(std::istream &is)
{
    std::string magic;
    int version = 0;
    is >> magic >> version;
    NAZAR_CHECK(is.good() && magic == "nazar-model" && version == 1,
                "not a nazar model stream");
    std::string arch_name;
    size_t input_dim = 0, num_classes = 0;
    is >> arch_name >> input_dim >> num_classes;
    NAZAR_CHECK(is.good(), "malformed model header");

    Architecture arch;
    if (arch_name == "ResNet18")
        arch = Architecture::kResNet18;
    else if (arch_name == "ResNet34")
        arch = Architecture::kResNet34;
    else if (arch_name == "ResNet50")
        arch = Architecture::kResNet50;
    else
        throw NazarError("unknown architecture: " + arch_name);

    checkDims(input_dim, num_classes);

    // The tensors come in params(kTrain) order: each hidden block's
    // Linear weight and bias, then its BN gamma and beta, and last the
    // output Linear's weight and bias. The BN patch that follows
    // restates gamma and beta, so the chain takes them from there.
    size_t count = 0;
    is >> count;
    NAZAR_CHECK(count == 4 * hiddenDims(arch).size() + 2,
                "parameter-count mismatch");
    auto read_tensor = [&](size_t rows, size_t cols) {
        size_t r = 0, c = 0;
        is >> r >> c;
        NAZAR_CHECK(r == rows && c == cols, "parameter shape mismatch");
        Matrix m(rows, cols);
        for (size_t i = 0; i < rows; ++i)
            for (size_t j = 0; j < cols; ++j)
                is >> m(i, j);
        return m;
    };
    size_t linears = 0;
    Classifier model(arch, input_dim, num_classes,
                     buildChain(arch, input_dim, num_classes,
                                [&](size_t in, size_t out) {
                                    if (linears++ > 0) {
                                        read_tensor(1, in); // BN gamma
                                        read_tensor(1, in); // BN beta
                                    }
                                    Matrix weight = read_tensor(in, out);
                                    return std::make_unique<Linear>(
                                        std::move(weight),
                                        read_tensor(1, out));
                                }));
    NAZAR_CHECK(!is.fail(), "malformed model body");
    model.applyBnPatch(BnPatch::load(is));
    return model;
}

} // namespace nazar::nn
