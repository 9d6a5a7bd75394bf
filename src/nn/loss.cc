#include "src/nn/loss.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/tensor_ops.h"
#include "src/util/logging.h"

namespace egeria {

namespace {

// Shared core: rows of logits [rows, classes] against integer labels; rows whose
// label is kIgnoreLabel contribute nothing.
LossResult RowwiseCrossEntropy(const Tensor& logits, int64_t rows, int64_t classes,
                               const std::vector<int>& labels, float label_smoothing) {
  EGERIA_CHECK(static_cast<int64_t>(labels.size()) == rows);
  Tensor logp = LogSoftmax(logits.Reshape({rows, classes}));
  LossResult out;
  out.grad = Tensor(logits.Shape());
  float* grad = out.grad.Data();
  const float* lp = logp.Data();
  int64_t active = 0;
  for (int64_t r = 0; r < rows; ++r) {
    if (labels[static_cast<size_t>(r)] != kIgnoreLabel) {
      ++active;
    }
  }
  if (active == 0) {
    return out;
  }
  const float inv = 1.0F / static_cast<float>(active);
  const float off_weight = label_smoothing / static_cast<float>(classes);
  const float on_weight = 1.0F - label_smoothing + off_weight;
  double total = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    const int label = labels[static_cast<size_t>(r)];
    float* grow = grad + r * classes;
    if (label == kIgnoreLabel) {
      continue;
    }
    EGERIA_CHECK_MSG(label >= 0 && label < classes, "label out of range");
    const float* lrow = lp + r * classes;
    double row_loss = -on_weight * lrow[label];
    if (label_smoothing > 0.0F) {
      for (int64_t c = 0; c < classes; ++c) {
        if (c != label) {
          row_loss -= off_weight * lrow[c];
        }
      }
    }
    total += row_loss;
    // d(loss)/d(logit) = softmax - target distribution, scaled by 1/active.
    for (int64_t c = 0; c < classes; ++c) {
      const float p = std::exp(lrow[c]);
      const float target = (c == label) ? on_weight : off_weight;
      grow[c] = (p - target) * inv;
    }
  }
  out.loss = static_cast<float>(total) * inv;
  return out;
}

}  // namespace

LossResult SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                               float label_smoothing) {
  EGERIA_CHECK(logits.Dim() == 2);
  return RowwiseCrossEntropy(logits, logits.Size(0), logits.Size(1), labels,
                             label_smoothing);
}

LossResult SequenceCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                                float label_smoothing) {
  EGERIA_CHECK(logits.Dim() == 3);
  return RowwiseCrossEntropy(logits, logits.Size(0) * logits.Size(1), logits.Size(2),
                             labels, label_smoothing);
}

LossResult PixelwiseCrossEntropy(const Tensor& logits, const std::vector<int>& labels) {
  EGERIA_CHECK(logits.Dim() == 4);
  const int64_t b = logits.Size(0);
  const int64_t c = logits.Size(1);
  const int64_t h = logits.Size(2);
  const int64_t w = logits.Size(3);
  // Rearrange NCHW -> [b*h*w, c] rows for the shared core, then scatter back.
  Tensor rows({b * h * w, c});
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* plane = logits.Data() + (bi * c + ci) * h * w;
      for (int64_t i = 0; i < h * w; ++i) {
        rows.At(bi * h * w + i, ci) = plane[i];
      }
    }
  }
  LossResult rr = RowwiseCrossEntropy(rows, b * h * w, c, labels, 0.0F);
  LossResult out;
  out.loss = rr.loss;
  out.grad = Tensor(logits.Shape());
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      float* plane = out.grad.Data() + (bi * c + ci) * h * w;
      for (int64_t i = 0; i < h * w; ++i) {
        plane[i] = rr.grad.At(bi * h * w + i, ci);
      }
    }
  }
  return out;
}

LossResult SpanLoss(const Tensor& logits, const std::vector<std::pair<int, int>>& spans) {
  EGERIA_CHECK(logits.Dim() == 3 && logits.Size(2) == 2);
  const int64_t b = logits.Size(0);
  const int64_t t = logits.Size(1);
  EGERIA_CHECK(static_cast<int64_t>(spans.size()) == b);
  // Split into start/end logit matrices [b, t].
  Tensor start({b, t});
  Tensor end({b, t});
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ti = 0; ti < t; ++ti) {
      start.At(bi, ti) = logits.At(bi, ti, 0);
      end.At(bi, ti) = logits.At(bi, ti, 1);
    }
  }
  std::vector<int> start_labels(static_cast<size_t>(b));
  std::vector<int> end_labels(static_cast<size_t>(b));
  for (int64_t bi = 0; bi < b; ++bi) {
    start_labels[static_cast<size_t>(bi)] = spans[static_cast<size_t>(bi)].first;
    end_labels[static_cast<size_t>(bi)] = spans[static_cast<size_t>(bi)].second;
  }
  LossResult ls = SoftmaxCrossEntropy(start, start_labels);
  LossResult le = SoftmaxCrossEntropy(end, end_labels);
  LossResult out;
  out.loss = 0.5F * (ls.loss + le.loss);
  out.grad = Tensor(logits.Shape());
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ti = 0; ti < t; ++ti) {
      out.grad.At(bi, ti, 0) = 0.5F * ls.grad.At(bi, ti);
      out.grad.At(bi, ti, 1) = 0.5F * le.grad.At(bi, ti);
    }
  }
  return out;
}

double TopOneAccuracy(const Tensor& logits, const std::vector<int>& labels) {
  EGERIA_CHECK(logits.Dim() == 2);
  const int64_t n = logits.Size(0);
  const int64_t c = logits.Size(1);
  EGERIA_CHECK(static_cast<int64_t>(labels.size()) == n);
  int64_t correct = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float* row = logits.Data() + i * c;
    int64_t best = 0;
    for (int64_t j = 1; j < c; ++j) {
      if (row[j] > row[best]) {
        best = j;
      }
    }
    if (best == labels[static_cast<size_t>(i)]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

double MeanIoU(const Tensor& logits, const std::vector<int>& labels, int num_classes) {
  EGERIA_CHECK(logits.Dim() == 4);
  const int64_t b = logits.Size(0);
  const int64_t c = logits.Size(1);
  const int64_t hw = logits.Size(2) * logits.Size(3);
  std::vector<int64_t> inter(static_cast<size_t>(num_classes), 0);
  std::vector<int64_t> uni(static_cast<size_t>(num_classes), 0);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t i = 0; i < hw; ++i) {
      const int label = labels[static_cast<size_t>(bi * hw + i)];
      if (label == kIgnoreLabel) {
        continue;
      }
      int64_t best = 0;
      float best_v = logits.Data()[(bi * c) * hw + i];
      for (int64_t ci = 1; ci < c; ++ci) {
        const float v = logits.Data()[(bi * c + ci) * hw + i];
        if (v > best_v) {
          best_v = v;
          best = ci;
        }
      }
      if (best == label) {
        ++inter[static_cast<size_t>(label)];
        ++uni[static_cast<size_t>(label)];
      } else {
        ++uni[static_cast<size_t>(label)];
        ++uni[static_cast<size_t>(best)];
      }
    }
  }
  double sum = 0.0;
  int present = 0;
  for (int k = 0; k < num_classes; ++k) {
    if (uni[static_cast<size_t>(k)] > 0) {
      sum += static_cast<double>(inter[static_cast<size_t>(k)]) /
             static_cast<double>(uni[static_cast<size_t>(k)]);
      ++present;
    }
  }
  return (present > 0) ? sum / present : 0.0;
}

double Perplexity(const Tensor& logits, const std::vector<int>& labels) {
  EGERIA_CHECK(logits.Dim() == 3);
  const int64_t rows = logits.Size(0) * logits.Size(1);
  const int64_t c = logits.Size(2);
  Tensor logp = LogSoftmax(logits.Reshape({rows, c}));
  double total = 0.0;
  int64_t count = 0;
  for (int64_t r = 0; r < rows; ++r) {
    const int label = labels[static_cast<size_t>(r)];
    if (label == kIgnoreLabel) {
      continue;
    }
    total -= logp.At(r, label);
    ++count;
  }
  return (count > 0) ? std::exp(total / static_cast<double>(count)) : 1.0;
}

double SpanF1(const Tensor& logits, const std::vector<std::pair<int, int>>& spans) {
  EGERIA_CHECK(logits.Dim() == 3 && logits.Size(2) == 2);
  const int64_t b = logits.Size(0);
  const int64_t t = logits.Size(1);
  double f1_sum = 0.0;
  for (int64_t bi = 0; bi < b; ++bi) {
    int64_t ps = 0;
    int64_t pe = 0;
    float best_s = logits.At(bi, 0, 0);
    float best_e = logits.At(bi, 0, 1);
    for (int64_t ti = 1; ti < t; ++ti) {
      if (logits.At(bi, ti, 0) > best_s) {
        best_s = logits.At(bi, ti, 0);
        ps = ti;
      }
      if (logits.At(bi, ti, 1) > best_e) {
        best_e = logits.At(bi, ti, 1);
        pe = ti;
      }
    }
    if (pe < ps) {
      pe = ps;
    }
    const int64_t gs = spans[static_cast<size_t>(bi)].first;
    const int64_t ge = spans[static_cast<size_t>(bi)].second;
    const int64_t inter_lo = std::max(ps, gs);
    const int64_t inter_hi = std::min(pe, ge);
    const int64_t inter = std::max<int64_t>(0, inter_hi - inter_lo + 1);
    const int64_t pred_len = pe - ps + 1;
    const int64_t gold_len = ge - gs + 1;
    if (inter == 0) {
      continue;
    }
    const double precision = static_cast<double>(inter) / static_cast<double>(pred_len);
    const double recall = static_cast<double>(inter) / static_cast<double>(gold_len);
    f1_sum += 2.0 * precision * recall / (precision + recall);
  }
  return f1_sum / static_cast<double>(b);
}

}  // namespace egeria
