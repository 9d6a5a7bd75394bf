// Task losses. Each returns the scalar loss and the gradient with respect to the
// logits, normalized by the number of contributing elements, ready to feed into
// Module::Backward / ChainModel::BackwardTo.
#ifndef EGERIA_SRC_NN_LOSS_H_
#define EGERIA_SRC_NN_LOSS_H_

#include <vector>

#include "src/tensor/tensor.h"

namespace egeria {

// Marks positions excluded from sequence losses (padding).
inline constexpr int kIgnoreLabel = -100;

struct LossResult {
  float loss = 0.0F;
  Tensor grad;  // same shape as the logits
};

// logits [n, classes]; labels size n. Optional label smoothing.
LossResult SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                               float label_smoothing = 0.0F);

// logits [b, t, vocab]; labels size b*t with kIgnoreLabel allowed.
LossResult SequenceCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                                float label_smoothing = 0.0F);

// logits [b, classes, h, w]; labels size b*h*w (per-pixel class ids, kIgnoreLabel ok).
LossResult PixelwiseCrossEntropy(const Tensor& logits, const std::vector<int>& labels);

// Span extraction (QA): logits [b, t, 2] (start/end); spans size b (start, end pairs).
LossResult SpanLoss(const Tensor& logits, const std::vector<std::pair<int, int>>& spans);

// Accuracy helpers used by validation loops.
double TopOneAccuracy(const Tensor& logits, const std::vector<int>& labels);
// Mean intersection-over-union over classes present in labels.
double MeanIoU(const Tensor& logits, const std::vector<int>& labels, int num_classes);
// exp(mean CE) over non-ignored positions.
double Perplexity(const Tensor& logits, const std::vector<int>& labels);
// Span overlap F1 (SQuAD-style, over token indices).
double SpanF1(const Tensor& logits, const std::vector<std::pair<int, int>>& spans);

}  // namespace egeria

#endif  // EGERIA_SRC_NN_LOSS_H_
