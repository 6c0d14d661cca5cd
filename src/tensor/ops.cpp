#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/simd.hpp"

namespace rp {

float sum(const Tensor& t) {
  // Kahan summation keeps reductions stable for long activation vectors.
  float s = 0.0f, c = 0.0f;
  for (float v : t.data()) {
    const float y = v - c;
    const float u = s + y;
    c = (u - s) - y;
    s = u;
  }
  return s;
}

float mean(const Tensor& t) { return t.numel() == 0 ? 0.0f : sum(t) / static_cast<float>(t.numel()); }

float max(const Tensor& t) {
  if (t.empty()) throw std::invalid_argument("max of empty tensor");
  return *std::max_element(t.data().begin(), t.data().end());
}

float min(const Tensor& t) {
  if (t.empty()) throw std::invalid_argument("min of empty tensor");
  return *std::min_element(t.data().begin(), t.data().end());
}

int64_t argmax(const Tensor& t) {
  if (t.empty()) throw std::invalid_argument("argmax of empty tensor");
  return std::distance(t.data().begin(), std::max_element(t.data().begin(), t.data().end()));
}

int64_t count_nonzero(const Tensor& t) {
  int64_t n = 0;
  for (float v : t.data()) n += (v != 0.0f);
  return n;
}

float l1_norm(const Tensor& t) {
  float s = 0.0f;
  for (float v : t.data()) s += std::fabs(v);
  return s;
}

float l2_norm(const Tensor& t) {
  double s = 0.0;
  for (float v : t.data()) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

float linf_norm(const Tensor& t) {
  return simd::reduce_abs_max(t.data().data(), t.numel());
}

float l2_distance(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("l2_distance: shape mismatch");
  double s = 0.0;
  const auto ad = a.data();
  const auto bd = b.data();
  for (size_t i = 0; i < ad.size(); ++i) {
    const double d = static_cast<double>(ad[i]) - bd[i];
    s += d * d;
  }
  return static_cast<float>(std::sqrt(s));
}

Tensor softmax_rows(const Tensor& logits) {
  if (logits.ndim() != 2) throw std::invalid_argument("softmax_rows expects a [N, C] matrix");
  Tensor out(logits.shape(), logits.data().data());
  softmax_rows_inplace(out);
  return out;
}

void softmax_rows_inplace(Tensor& m) {
  if (m.ndim() != 2) throw std::invalid_argument("softmax_rows expects a [N, C] matrix");
  const int64_t n = m.size(0), c = m.size(1);
  float* od = m.data().data();
  for (int64_t i = 0; i < n; ++i) {
    float* row = od + i * c;
    const float mx = simd::reduce_max(row, c);
    float denom = 0.0f;
    for (int64_t j = 0; j < c; ++j) {
      const float e = std::exp(row[j] - mx);
      row[j] = e;
      denom += e;
    }
    simd::div_scalar(row, denom, c);
  }
}

std::vector<int64_t> argmax_rows(const Tensor& m) {
  if (m.ndim() != 2) throw std::invalid_argument("argmax_rows expects a [N, C] matrix");
  std::vector<int64_t> out(static_cast<size_t>(m.size(0)));
  argmax_rows_into(m, out);
  return out;
}

void argmax_rows_into(const Tensor& m, std::span<int64_t> out) {
  if (m.ndim() != 2) throw std::invalid_argument("argmax_rows expects a [N, C] matrix");
  const int64_t n = m.size(0), c = m.size(1);
  if (static_cast<int64_t>(out.size()) != n) {
    throw std::invalid_argument("argmax_rows_into: out must hold one entry per row");
  }
  for (int64_t i = 0; i < n; ++i) {
    int64_t best = 0;
    for (int64_t j = 1; j < c; ++j) {
      if (m.at(i, j) > m.at(i, best)) best = j;
    }
    out[static_cast<size_t>(i)] = best;
  }
}

std::vector<float> logsumexp_rows(const Tensor& m) {
  if (m.ndim() != 2) throw std::invalid_argument("logsumexp_rows expects a [N, C] matrix");
  std::vector<float> out(static_cast<size_t>(m.size(0)));
  logsumexp_rows_into(m, out);
  return out;
}

void logsumexp_rows_into(const Tensor& m, std::span<float> out) {
  if (m.ndim() != 2) throw std::invalid_argument("logsumexp_rows expects a [N, C] matrix");
  const int64_t n = m.size(0), c = m.size(1);
  if (static_cast<int64_t>(out.size()) != n) {
    throw std::invalid_argument("logsumexp_rows_into: out must hold one entry per row");
  }
  for (int64_t i = 0; i < n; ++i) {
    float mx = m.at(i, 0);
    for (int64_t j = 1; j < c; ++j) mx = std::max(mx, m.at(i, j));
    float s = 0.0f;
    for (int64_t j = 0; j < c; ++j) s += std::exp(m.at(i, j) - mx);
    out[static_cast<size_t>(i)] = mx + std::log(s);
  }
}

Tensor clamp(Tensor t, float lo, float hi) {
  simd::clamp(t.data().data(), lo, hi, t.numel());
  return t;
}

Tensor relu(Tensor t) {
  simd::relu(t.data().data(), t.numel());
  return t;
}

}  // namespace rp
