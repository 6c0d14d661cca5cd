#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace rp::nn {

LossResult softmax_cross_entropy(const Tensor& logits, std::span<const int64_t> labels) {
  if (logits.ndim() != 2) {
    throw std::invalid_argument("softmax_cross_entropy: expected [N, C] logits");
  }
  const int64_t n = logits.size(0), c = logits.size(1);
  if (static_cast<int64_t>(labels.size()) != n) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  auto dl = softmax_rows(logits);
  double loss = 0.0;
  const float invn = 1.0f / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t y = labels[static_cast<size_t>(i)];
    if (y < 0 || y >= c) throw std::out_of_range("softmax_cross_entropy: bad label");
    loss -= std::log(std::max(dl.at(i, y), 1e-12f));
    dl.at(i, y) -= 1.0f;
  }
  dl *= invn;
  return {static_cast<float>(loss / n), std::move(dl)};
}

LossResult pixel_cross_entropy(const Tensor& logits, std::span<const int64_t> labels,
                               int64_t ignore_label) {
  if (logits.ndim() != 4) {
    throw std::invalid_argument("pixel_cross_entropy: expected [N, C, H, W] logits");
  }
  const int64_t n = logits.size(0), c = logits.size(1), h = logits.size(2), w = logits.size(3);
  const int64_t plane = h * w;
  if (static_cast<int64_t>(labels.size()) != n * plane) {
    throw std::invalid_argument("pixel_cross_entropy: label count mismatch");
  }

  Tensor dl(logits.shape());
  Tensor probs(Shape{c});
  const float* ld = logits.data().data();
  float* gd = dl.data().data();
  float* pb = probs.data().data();
  double loss = 0.0;
  int64_t counted = 0;

  for (int64_t i = 0; i < n; ++i) {
    for (int64_t p = 0; p < plane; ++p) {
      const int64_t y = labels[static_cast<size_t>(i * plane + p)];
      if (y == ignore_label) continue;
      if (y < 0 || y >= c) throw std::out_of_range("pixel_cross_entropy: bad label");
      // Channel-strided softmax at pixel p: gather the channel column into
      // the contiguous scratch first so the max reduction runs vectorized.
      for (int64_t ch = 0; ch < c; ++ch) {
        pb[ch] = ld[(i * c + ch) * plane + p];
      }
      const float m = simd::reduce_max(pb, c);
      float denom = 0.0f;
      for (int64_t ch = 0; ch < c; ++ch) {
        pb[ch] = std::exp(pb[ch] - m);
        denom += pb[ch];
      }
      for (int64_t ch = 0; ch < c; ++ch) {
        const float q = pb[ch] / denom;
        gd[(i * c + ch) * plane + p] = q - (ch == y ? 1.0f : 0.0f);
      }
      loss -= std::log(std::max(pb[y] / denom, 1e-12f));
      ++counted;
    }
  }
  if (counted == 0) return {0.0f, std::move(dl)};
  const float inv = 1.0f / static_cast<float>(counted);
  dl *= inv;
  return {static_cast<float>(loss / counted), std::move(dl)};
}

}  // namespace rp::nn
