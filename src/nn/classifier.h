/**
 * @file
 * Classifier — the model facade the rest of Nazar works with.
 *
 * The paper evaluates ResNet18/34/50 image classifiers. This substrate
 * maps each architecture name to a BN-equipped MLP of increasing
 * capacity operating on feature vectors (see DESIGN.md §1 for why this
 * substitution preserves the measured phenomena). Classifier bundles
 * the network with its training loop, evaluation helpers, BN patching,
 * cloning and serialization.
 */
#ifndef NAZAR_NN_CLASSIFIER_H
#define NAZAR_NN_CLASSIFIER_H

#include <iosfwd>
#include <memory>
#include <string>

#include "common/rng.h"
#include "nn/bn_patch.h"
#include "nn/sequential.h"

namespace nazar::nn {

/**
 * Model architectures, named after the paper's ResNet variants. Larger
 * variants have more blocks and wider hidden layers, so they generalize
 * better across mixed distributions — the property Fig 8b exercises.
 */
enum class Architecture { kResNet18, kResNet34, kResNet50 };

/** Printable architecture name ("ResNet18", ...). */
std::string toString(Architecture arch);

/** Hidden-layer widths for an architecture. */
std::vector<size_t> hiddenDims(Architecture arch);

/** Supervised training hyperparameters. */
struct TrainConfig
{
    int epochs = 40;
    size_t batchSize = 64;
    double learningRate = 0.01;
    double momentum = 0.9;
    double weightDecay = 1e-4;
    uint64_t seed = 1;
    /**
     * Inference-confidence gain folded into the output layer after
     * training (see Classifier::scaleLogits). Deep ResNets are far
     * sharper (more overconfident) than a small MLP trained with SGD;
     * this reproduces their confidence profile, which the MSP detector
     * depends on. 1.0 disables.
     */
    double confidenceGain = 0.7;
};

/** A trained (or trainable) classification model. */
class Classifier
{
  public:
    /**
     * Build an untrained model.
     *
     * @param arch        Capacity tier.
     * @param input_dim   Feature width of the inputs.
     * @param num_classes Output class count.
     * @param seed        Weight-initialization seed.
     */
    Classifier(Architecture arch, size_t input_dim, size_t num_classes,
               uint64_t seed);

    Classifier(const Classifier &) = delete;
    Classifier &operator=(const Classifier &) = delete;
    Classifier(Classifier &&) = default;
    Classifier &operator=(Classifier &&) = default;

    /**
     * Deep copy of the weights and BN state, built straight from them:
     * no weight draw, no forward cache, zero gradients.
     */
    Classifier clone() const;

    // ---- inference ------------------------------------------------------

    /**
     * Eval-mode logits under this model's own BN state (see
     * Sequential::infer: no layer state is written).
     */
    Matrix infer(const Matrix &x) const;

    /**
     * Eval-mode logits under @p patch instead of this model's BN state:
     * a model version runs on the shared base weights, with no copy of
     * the model and no patch applied to it.
     */
    Matrix infer(const Matrix &x, const BnPatch &patch) const;

    /**
     * Logits for a batch. kEval runs infer(); kTrain and kAdapt run the
     * caching forward pass, which updates BN running statistics.
     */
    Matrix logits(const Matrix &x, Mode mode = Mode::kEval);

    /** Predicted class per row (eval mode). */
    std::vector<int> predict(const Matrix &x) const;

    /** Predicted class for a single feature vector. */
    int predictOne(const std::vector<double> &x) const;

    /** MSP confidence per row (eval mode). */
    std::vector<double> mspScores(const Matrix &x) const;

    /** Fraction of rows predicted correctly (eval mode). */
    double accuracy(const Matrix &x, const std::vector<int> &labels) const;

    // ---- training -------------------------------------------------------

    /**
     * Supervised training with mini-batch SGD + momentum. Applies the
     * configured confidence gain afterwards.
     * @return Mean training loss of the final epoch.
     */
    double trainSupervised(const Matrix &x, const std::vector<int> &labels,
                           const TrainConfig &config);

    /**
     * Multiply the output layer's weights and bias by @p gain — an
     * exact reparameterization that sharpens the softmax (inverse
     * temperature) without changing predicted classes on any input.
     */
    void scaleLogits(double gain);

    /**
     * Outlier-Exposure training (Hendrycks et al. 2019): standard
     * cross-entropy on labeled clean data plus a term pushing the
     * softmax toward *uniform* on an auxiliary unlabeled outlier set —
     * the "secondary dataset" requirement that rules the method out
     * for Nazar's setting (paper Table 1), implemented here so the
     * trade-off can be measured.
     *
     * @param x         Clean training features.
     * @param labels    Clean labels.
     * @param outlier_x Auxiliary outlier/drifted features (unlabeled).
     * @param config    Optimization hyperparameters.
     * @param lambda    Weight of the uniformity term (the OE
     *                  literature's default: 0.5).
     * @return Mean combined loss of the final epoch.
     */
    double trainWithOutlierExposure(const Matrix &x,
                                    const std::vector<int> &labels,
                                    const Matrix &outlier_x,
                                    const TrainConfig &config,
                                    double lambda = 0.5);

    // ---- structure ------------------------------------------------------

    Sequential &net() { return *net_; }
    const Sequential &net() const { return *net_; }

    Architecture architecture() const { return arch_; }
    size_t inputDim() const { return inputDim_; }
    size_t numClasses() const { return numClasses_; }

    /** Total trainable scalars. */
    size_t parameterCount() const;

    /** Scalars in the BN patch (the paper's "217x smaller" argument). */
    size_t bnParameterCount() const;

    /** Extract the current BN state as a deployable patch. */
    BnPatch bnPatch() const { return BnPatch::extract(*net_); }

    /** Install a BN patch (model version) into this network. */
    void applyBnPatch(const BnPatch &patch) { patch.apply(*net_); }

    // ---- serialization ---------------------------------------------------

    /** Write the full model (spec + every tensor) to a text stream. */
    void save(std::ostream &os) const;

    /** Read a model previously written by save(). */
    static Classifier load(std::istream &is);

  private:
    Classifier(Architecture arch, size_t input_dim, size_t num_classes,
               std::unique_ptr<Sequential> net);

    Architecture arch_;
    size_t inputDim_;
    size_t numClasses_;
    std::unique_ptr<Sequential> net_;
};

} // namespace nazar::nn

#endif // NAZAR_NN_CLASSIFIER_H
