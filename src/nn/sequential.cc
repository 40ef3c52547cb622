/**
 * @file
 * Implementation of the sequential container.
 */
#include "sequential.h"

#include <cmath>

#include "common/error.h"
#include "nn/activation.h"
#include "nn/bn_patch.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace nazar::nn {

namespace {

/**
 * The epilogue of a hidden block over its product @p y, in place: the
 * bias add, BN eval, then the ReLU select. Each is the expression its
 * layer's forward() evaluates, in the same order, so the bits match.
 */
void
biasBnRelu(Matrix &y, const double *bias, const double *gamma,
           const double *beta, const double *mean, const double *inv_std)
{
    const size_t n = y.cols();
    for (size_t r = 0; r < y.rows(); ++r) {
        double *a = y.row(r);
        for (size_t c = 0; c < n; ++c) {
            double v = a[c] + bias[c];
            v = gamma[c] * (v - mean[c]) * inv_std[c] + beta[c];
            a[c] = v > 0.0 ? v : 0.0; // NaN and -0.0 map to 0.0
        }
    }
}

} // namespace

Sequential &
Sequential::add(std::unique_ptr<Layer> layer)
{
    NAZAR_CHECK(layer != nullptr, "cannot add a null layer");
    plan(*layer);
    layers_.push_back(std::move(layer));
    return *this;
}

void
Sequential::plan(const Layer &layer)
{
    Block *last = blocks_.empty() ? nullptr : &blocks_.back();
    if (const auto *linear = dynamic_cast<const Linear *>(&layer)) {
        blocks_.push_back(Block{linear});
    } else if (const auto *bn = dynamic_cast<const BatchNorm1d *>(&layer);
               bn != nullptr && last != nullptr && last->bn == nullptr &&
               bn->features() == last->linear->outputDim()) {
        last->bn = bn;
        ++bnCount_;
    } else if (dynamic_cast<const Relu *>(&layer) != nullptr &&
               last != nullptr && last->bn != nullptr && !last->relu &&
               layer.outputDim() == last->bn->features()) {
        last->relu = true;
    } else {
        fusable_ = false;
    }
}

Matrix
Sequential::forward(const Matrix &x, Mode mode)
{
    NAZAR_SPAN("nn.forward");
    static obs::Counter &rows =
        obs::Registry::global().counter("nn.forward.rows");
    rows.add(x.rows());
    Matrix h = x;
    for (auto &layer : layers_)
        h = layer->forward(h, mode);
    return h;
}

Matrix
Sequential::infer(const Matrix &x, const BnPatch *patch) const
{
    NAZAR_SPAN("nn.forward");
    static obs::Counter &rows =
        obs::Registry::global().counter("nn.forward.rows");
    rows.add(x.rows());
    NAZAR_CHECK(fusable_,
                "infer() runs Linear[->BatchNorm1d->Relu] chains only");
    NAZAR_CHECK(patch == nullptr || patch->layerCount() == bnCount_,
                "BN patch layer count mismatch");
    if (blocks_.empty())
        return x;

    Matrix h;
    size_t bn_slot = 0;
    std::vector<double> inv_std;
    for (const Block &block : blocks_) {
        NAZAR_CHECK(block.relu == (block.bn != nullptr),
                    "infer() runs Linear[->BatchNorm1d->Relu] chains only");
        const Matrix &in = &block == &blocks_.front() ? x : h;
        const Linear &linear = *block.linear;
        NAZAR_CHECK(in.cols() == linear.inputDim(),
                    "Linear input width mismatch");
        Matrix y = in.matmul(linear.weight().value);
        if (block.bn == nullptr) {
            y.addRowBroadcast(linear.bias().value);
            h = std::move(y);
            continue;
        }
        const BatchNorm1d &bn = *block.bn;
        const Matrix *gamma = &bn.gamma().value, *beta = &bn.beta().value;
        const Matrix *mean = &bn.runningMean(), *var = &bn.runningVar();
        if (patch != nullptr) {
            const BnState &state = patch->state(bn_slot);
            const size_t n = bn.features();
            NAZAR_CHECK(state.gamma.cols() == n && state.beta.cols() == n &&
                            state.runningMean.cols() == n &&
                            state.runningVar.cols() == n,
                        "BnState width mismatch");
            gamma = &state.gamma;
            beta = &state.beta;
            mean = &state.runningMean;
            var = &state.runningVar;
        }
        ++bn_slot;
        // 1/sqrt(var + eps) depends only on the column: once per call,
        // as BatchNorm1d::forward computes it.
        inv_std.resize(bn.features());
        for (size_t c = 0; c < inv_std.size(); ++c)
            inv_std[c] = 1.0 / std::sqrt((*var)(0, c) + bn.eps());
        biasBnRelu(y, linear.bias().value.row(0), gamma->row(0),
                   beta->row(0), mean->row(0), inv_std.data());
        h = std::move(y);
    }
    return h;
}

Matrix
Sequential::backward(const Matrix &grad_logits, Mode mode)
{
    NAZAR_SPAN("nn.backward");
    static obs::Counter &rows =
        obs::Registry::global().counter("nn.backward.rows");
    rows.add(grad_logits.rows());
    Matrix g = grad_logits;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        g = (*it)->backward(g, mode);
    return g;
}

std::vector<Param *>
Sequential::params(Mode mode)
{
    std::vector<Param *> out;
    for (auto &layer : layers_)
        for (Param *p : layer->params(mode))
            out.push_back(p);
    return out;
}

void
Sequential::zeroGrads()
{
    for (Param *p : params(Mode::kTrain))
        p->zeroGrad();
}

std::vector<BatchNorm1d *>
Sequential::batchNormLayers()
{
    std::vector<BatchNorm1d *> out;
    for (auto &layer : layers_)
        if (auto *bn = dynamic_cast<BatchNorm1d *>(layer.get()))
            out.push_back(bn);
    return out;
}

std::vector<const BatchNorm1d *>
Sequential::batchNormLayers() const
{
    std::vector<const BatchNorm1d *> out;
    for (const auto &layer : layers_)
        if (const auto *bn = dynamic_cast<const BatchNorm1d *>(layer.get()))
            out.push_back(bn);
    return out;
}

size_t
Sequential::parameterCount()
{
    size_t n = 0;
    for (Param *p : params(Mode::kTrain))
        n += p->value.size();
    return n;
}

} // namespace nazar::nn
