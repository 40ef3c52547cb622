/**
 * @file
 * Detector evaluation harness: F1 / precision / recall / detection
 * rate over labeled logit batches (paper Eq. 1 and Figs 2, 5a, 6).
 */
#ifndef NAZAR_DETECT_METRICS_H
#define NAZAR_DETECT_METRICS_H

#include <vector>

#include "common/stats.h"
#include "detect/detector.h"
#include "detect/ks_test.h"
#include "nn/matrix.h"

namespace nazar::detect {

/**
 * Evaluate a single-sample detector against ground truth.
 *
 * @param detector   Detector under test.
 * @param logits     One row per sample.
 * @param true_drift Ground-truth drift flag per sample.
 */
ConfusionCounts evaluateDetector(const Detector &detector,
                                 const nn::Matrix &logits,
                                 const std::vector<bool> &true_drift);

/**
 * Evaluate a batched KS-test detector: scores are grouped into
 * consecutive batches of @p batch_size; each batch receives one
 * detection verdict, which is counted once per sample in the batch
 * against that sample's ground truth (the paper "assigns the detection
 * result on the whole batch"). A trailing partial batch is evaluated
 * as-is.
 */
ConfusionCounts evaluateKsDetector(const KsTestDetector &detector,
                                   const std::vector<double> &scores,
                                   const std::vector<bool> &true_drift,
                                   size_t batch_size);

/**
 * Fraction of samples flagged as drifted (the "detection rate" of
 * Figs 5c and 6; no ground truth involved).
 */
double detectionRate(const Detector &detector, const nn::Matrix &logits);

} // namespace nazar::detect

#endif // NAZAR_DETECT_METRICS_H
