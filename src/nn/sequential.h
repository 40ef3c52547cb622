/**
 * @file
 * Sequential layer container — Nazar's network graph is a simple chain.
 */
#ifndef NAZAR_NN_SEQUENTIAL_H
#define NAZAR_NN_SEQUENTIAL_H

#include <memory>

#include "nn/batchnorm.h"
#include "nn/layer.h"

namespace nazar::nn {

class BnPatch;
class Linear;

/** Ordered chain of layers with whole-network forward/backward. */
class Sequential
{
  public:
    Sequential() = default;

    // The container owns its layers; moving is fine, copying is not.
    Sequential(const Sequential &) = delete;
    Sequential &operator=(const Sequential &) = delete;
    Sequential(Sequential &&) = default;
    Sequential &operator=(Sequential &&) = default;

    /** Append a layer; returns a reference for chaining. */
    Sequential &add(std::unique_ptr<Layer> layer);

    /**
     * Run the full chain forward, caching what backward() needs. Use
     * it for training, adaptation and input-gradient detectors; plain
     * inference goes through infer().
     */
    Matrix forward(const Matrix &x, Mode mode);

    /**
     * Eval-mode logits without touching any layer state: the same bits
     * as forward(x, Mode::kEval), but no cache is written, so any
     * number of threads may run it on one network at once.
     *
     * Each Linear->BatchNorm1d->Relu block is one product followed by
     * one pass that adds the bias, applies BN with its running
     * statistics and clamps at zero, in that order; a bare Linear gets
     * the bias add only. BN state comes from @p patch (a model
     * version) when given, else from the layers. Throws NazarError
     * when the chain has another shape or the patch another BN layout.
     */
    Matrix infer(const Matrix &x, const BnPatch *patch = nullptr) const;

    /**
     * Run the full chain backward from dLoss/dLogits, accumulating
     * parameter gradients; returns dLoss/dInput.
     */
    Matrix backward(const Matrix &grad_logits, Mode mode);

    /** All parameters trainable in the given mode. */
    std::vector<Param *> params(Mode mode);

    /** Zero every parameter gradient (all modes). */
    void zeroGrads();

    /** Pointers to the BatchNorm layers, in network order. */
    std::vector<BatchNorm1d *> batchNormLayers();
    std::vector<const BatchNorm1d *> batchNormLayers() const;

    size_t layerCount() const { return layers_.size(); }
    Layer &layer(size_t i) { return *layers_.at(i); }
    const Layer &layer(size_t i) const { return *layers_.at(i); }

    /** Total number of scalar parameters (train mode). */
    size_t parameterCount();

  private:
    /**
     * One fused unit of infer(): a product, then its epilogue. A
     * hidden block has both bn and relu; an output block has neither.
     */
    struct Block
    {
        const Linear *linear = nullptr;
        const BatchNorm1d *bn = nullptr;
        bool relu = false;
    };

    /** Extend the block plan by @p layer, the next layer added. */
    void plan(const Layer &layer);

    std::vector<std::unique_ptr<Layer>> layers_;
    std::vector<Block> blocks_; ///< infer()'s view of layers_.
    size_t bnCount_ = 0;        ///< BN layers in blocks_.
    bool fusable_ = true;       ///< No layer fell outside a Block.
};

} // namespace nazar::nn

#endif // NAZAR_NN_SEQUENTIAL_H
