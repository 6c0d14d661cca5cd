#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rp::nn {

namespace {

void check_4d(const Tensor& x, const char* who) {
  if (x.ndim() != 4) {
    throw std::invalid_argument(std::string(who) + ": expected [N, C, H, W], got " +
                                x.shape().to_string());
  }
}

/// Samples per chunk of the per-sample conv loops: about four chunks per
/// lane, so each chunk builds its zero-filled scratch set once and reuses it
/// across its samples. Per-sample results never depend on the chunking.
int64_t per_lane_grain(int64_t n) {
  return std::max<int64_t>(1, n / (4 * static_cast<int64_t>(parallel::num_threads())));
}

/// Elements a BatchNorm chunk should cover before it is worth a pool task.
/// Below it the channels run inline, which keeps the small eval batches of
/// the serving path (<= 16 samples) from paying a pool wake per layer.
constexpr int64_t kBnChunkElems = int64_t{1} << 15;

/// Channels per BatchNorm chunk for `per_channel` elements in each channel.
int64_t bn_grain(int64_t per_channel) {
  return std::max<int64_t>(1, kBnChunkElems / std::max<int64_t>(1, per_channel));
}

/// Kaiming-normal fan-in init, the standard for ReLU networks.
Tensor kaiming_init(Shape shape, int64_t fan_in, Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Tensor::randn(std::move(shape), rng, stddev);
}

}  // namespace

int64_t Parameter::active() const {
  if (mask.empty()) return numel();
  int64_t n = 0;
  for (float v : mask.data()) n += (v != 0.0f);
  return n;
}

// ----- Conv2d ----------------------------------------------------------------

Conv2d::Conv2d(std::string name, int64_t in_c, int64_t out_c, int64_t k, int64_t stride,
               int64_t pad, int64_t in_h, int64_t in_w, bool use_bias, Rng& rng)
    : name_(std::move(name)),
      geom_{in_c, in_h, in_w, k, stride, pad},
      out_c_(out_c),
      use_bias_(use_bias),
      weight_(name_ + ".weight", kaiming_init(Shape{out_c, in_c * k * k}, in_c * k * k, rng),
              /*is_prunable=*/true),
      bias_(name_ + ".bias", Tensor::zeros(Shape{out_c}), /*is_prunable=*/false),
      in_stat_(static_cast<size_t>(in_c), 0.0f),
      out_stat_(static_cast<size_t>(out_c), 0.0f) {}

// rp-lint: hot — marks the name-merged `forward` node: every layer forward
Tensor Conv2d::forward(const Tensor& x, bool /*train*/) {
  check_4d(x, "Conv2d");
  const int64_t n = x.size(0);
  const int64_t oh = geom_.out_h(), ow = geom_.out_w();
  if (x.size(1) != geom_.in_c || x.size(2) != geom_.in_h || x.size(3) != geom_.in_w) {
    throw std::invalid_argument(name_ + ": input " + x.shape().to_string() +
                                " does not match configured geometry");
  }
  cached_input_ = x;
  const int64_t oplane = oh * ow;
  const int64_t isz = geom_.in_c * geom_.in_h * geom_.in_w;
  const float* xd = x.data().data();
  Tensor y = Tensor::scratch(Shape{n, out_c_, oh, ow});
  float* yd = y.data().data();

  // Samples are independent (each writes its own output plane), so the
  // im2col+GEMM loop is parallel over samples. Every chunk owns one set of
  // scratch tensors (pool-backed off the arena thread, arena-backed on it) —
  // nested parallel loops run inline, so a lane never shares these with
  // another forward in flight.
  parallel::parallel_for(0, n, per_lane_grain(n), [&](int64_t i0, int64_t i1) {
    Tensor x_n = Tensor::scratch(Shape{geom_.in_c, geom_.in_h, geom_.in_w});
    Tensor cols = Tensor::scratch(Shape{geom_.patch(), oplane});
    Tensor y_n = Tensor::scratch(Shape{out_c_, oplane});
    for (int64_t i = i0; i < i1; ++i) {
      std::memcpy(x_n.data().data(), xd + i * isz, static_cast<size_t>(isz) * sizeof(float));
      im2col(x_n, geom_, cols);
      if (sparse_) {
        sparse::matmul_into(sparse_w_, cols, y_n);
      } else {
        gemm(weight_.value, cols, y_n);  // rp-lint: allow(R9) dense path when sparse is off
      }
      const float* src = y_n.data().data();
      float* dst = yd + i * out_c_ * oplane;
      if (use_bias_) {
        for (int64_t c = 0; c < out_c_; ++c) {
          simd::bias_add(dst + c * oplane, src + c * oplane, bias_.value[c], oplane);
        }
      } else {
        std::memcpy(dst, src, static_cast<size_t>(out_c_ * oplane) * sizeof(float));
      }
    }
  });

  if (profiling_) {
    // Max-reduction per channel; each channel is owned by one lane, so the
    // stat update is race-free and (max being exact) order-independent.
    const int64_t plane = geom_.in_h * geom_.in_w;
    // rp-lint: allow(R7) per-channel loop: each iteration reduces n planes
    parallel::parallel_for(0, geom_.in_c, 1, [&](int64_t c0, int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        float m = in_stat_[static_cast<size_t>(c)];
        for (int64_t i = 0; i < n; ++i) {
          const float* p = xd + (i * geom_.in_c + c) * plane;
          m = std::max(m, simd::reduce_abs_max(p, plane));
        }
        in_stat_[static_cast<size_t>(c)] = m;
      }
    });
    // rp-lint: allow(R7) per-channel loop: each iteration reduces n planes
    parallel::parallel_for(0, out_c_, 1, [&](int64_t c0, int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        float m = out_stat_[static_cast<size_t>(c)];
        for (int64_t i = 0; i < n; ++i) {
          const float* p = yd + (i * out_c_ + c) * oplane;
          m = std::max(m, simd::reduce_abs_max(p, oplane));
        }
        out_stat_[static_cast<size_t>(c)] = m;
      }
    });
  }
  return y;
}

// rp-lint: hot — marks the name-merged `backward` node: every layer backward
Tensor Conv2d::backward(const Tensor& dy) {
  const int64_t n = cached_input_.size(0);
  const int64_t oh = geom_.out_h(), ow = geom_.out_w();
  const int64_t oplane = oh * ow;
  const int64_t patch = geom_.patch();
  const int64_t wsize = out_c_ * patch;
  const int64_t isz = geom_.in_c * geom_.in_h * geom_.in_w;
  const float* xd = cached_input_.data().data();
  const float* dyd = dy.data().data();
  Tensor dx = Tensor::scratch(cached_input_.shape());

  // Parallel over samples (same recipe as evaluate()): each sample's dW and
  // db contribution is computed independently — a beta=0 GEMM into per-chunk
  // scratch — and stored at its sample index; the fold into the parameter
  // gradients below runs in fixed sample order. Partial values depend only
  // on the sample, never on chunking, so gradients are bit-identical for any
  // RP_THREADS. dx slices are disjoint per sample and written in place.
  Tensor dw_partial = Tensor::scratch(Shape{n, wsize});
  Tensor db_partial = Tensor::scratch(Shape{use_bias_ ? n * out_c_ : int64_t{0}});
  float* dwp = dw_partial.data().data();
  float* dbp = db_partial.data().data();

  // Wᵀ once per call, so the per-sample dcols GEMM runs untransposed (gemm's
  // trans_a path would build this same copy for every sample).
  Tensor wt = Tensor::scratch(Shape{patch, out_c_});
  const float* wd = weight_.value.data().data();
  float* wtd = wt.data().data();
  for (int64_t o = 0; o < out_c_; ++o) {
    for (int64_t p = 0; p < patch; ++p) wtd[p * out_c_ + o] = wd[o * patch + p];
  }

  parallel::parallel_for(0, n, per_lane_grain(n), [&](int64_t i0, int64_t i1) {
    Tensor x_n = Tensor::scratch(Shape{geom_.in_c, geom_.in_h, geom_.in_w});
    Tensor dy_n = Tensor::scratch(Shape{out_c_, oplane});
    Tensor cols = Tensor::scratch(Shape{patch, oplane});
    Tensor dcols = Tensor::scratch(Shape{patch, oplane});
    Tensor dw_n = Tensor::scratch(Shape{out_c_, patch});
    Tensor dx_n = Tensor::scratch(Shape{geom_.in_c, geom_.in_h, geom_.in_w});
    for (int64_t i = i0; i < i1; ++i) {
      std::memcpy(dy_n.data().data(), dyd + i * out_c_ * oplane,
                  static_cast<size_t>(out_c_ * oplane) * sizeof(float));
      std::memcpy(x_n.data().data(), xd + i * isz, static_cast<size_t>(isz) * sizeof(float));
      im2col(x_n, geom_, cols);
      // dW_i = dy_n @ colsᵀ
      // rp-lint: allow(R9) training backward: gradients need the dense weight
      gemm(dy_n, cols, dw_n, /*trans_a=*/false, /*trans_b=*/true, 1.0f, 0.0f);
      std::memcpy(dwp + i * wsize, dw_n.data().data(),
                  static_cast<size_t>(wsize) * sizeof(float));
      // dcols = Wᵀ @ dy_n
      // rp-lint: allow(R9) training backward: gradients need the dense weight
      gemm(wt, dy_n, dcols);
      col2im(dcols, geom_, dx_n);
      dx.set_slice0(i, dx_n);

      if (use_bias_) {
        const float* d = dy_n.data().data();
        for (int64_t c = 0; c < out_c_; ++c) {
          float s = 0.0f;
          for (int64_t p = 0; p < oplane; ++p) s += d[c * oplane + p];
          dbp[i * out_c_ + c] = s;
        }
      }
    }
  });

  float* wg = weight_.grad.data().data();
  for (int64_t i = 0; i < n; ++i) {
    simd::add(wg, dwp + i * wsize, wsize);
  }
  if (use_bias_) {
    float* bg = bias_.grad.data().data();
    for (int64_t i = 0; i < n; ++i) {
      simd::add(bg, dbp + i * out_c_, out_c_);
    }
  }
  return dx;
}

void Conv2d::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (use_bias_) out.push_back(&bias_);
}

void Conv2d::collect_prunable(std::vector<PrunableSpec>& out) {
  PrunableSpec spec;
  spec.layer_name = name_;
  spec.weight = &weight_;
  spec.bias = use_bias_ ? &bias_ : nullptr;
  spec.out_coupled = out_coupled_;
  spec.out_units = out_c_;
  spec.in_groups = geom_.in_c;
  spec.group_size = geom_.k * geom_.k;
  spec.in_act_stat = &in_stat_;
  spec.out_act_stat = &out_stat_;
  spec.out_positions = geom_.out_h() * geom_.out_w();
  out.push_back(spec);
}

void Conv2d::set_profiling(bool on) {
  profiling_ = on;
  if (on) {
    std::fill(in_stat_.begin(), in_stat_.end(), 0.0f);
    std::fill(out_stat_.begin(), out_stat_.end(), 0.0f);
  }
}

void Conv2d::set_sparse(bool on) {
  sparse_ = on && sparse::mode() != sparse::Mode::kOff;
  sparse_w_ = sparse_ ? sparse::compile(weight_.value) : sparse::SparseWeight{};
}

int64_t Conv2d::flops() const {
  // Mask-aware MACs: every active weight fires once per output position.
  return weight_.active() * geom_.out_h() * geom_.out_w();
}

// ----- Linear ----------------------------------------------------------------

Linear::Linear(std::string name, int64_t in, int64_t out, bool use_bias, Rng& rng)
    : name_(std::move(name)),
      in_(in),
      out_(out),
      use_bias_(use_bias),
      weight_(name_ + ".weight", kaiming_init(Shape{out, in}, in, rng), /*is_prunable=*/true),
      bias_(name_ + ".bias", Tensor::zeros(Shape{out}), /*is_prunable=*/false),
      in_stat_(static_cast<size_t>(in), 0.0f),
      out_stat_(static_cast<size_t>(out), 0.0f) {}

Tensor Linear::forward(const Tensor& x, bool /*train*/) {
  if (x.ndim() != 2 || x.size(1) != in_) {
    throw std::invalid_argument(name_ + ": expected [N, " + std::to_string(in_) + "], got " +
                                x.shape().to_string());
  }
  cached_input_ = x;
  const int64_t n = x.size(0);
  Tensor y = Tensor::scratch(Shape{n, out_});
  if (sparse_) {
    sparse::rhs_matmul_into(sparse_w_, x, y);
  } else {
    // rp-lint: allow(R9) dense path when sparse is off
    gemm(x, weight_.value, y, /*trans_a=*/false, /*trans_b=*/true);
  }
  if (use_bias_) {
    float* yd = y.data().data();
    const float* bd = bias_.value.data().data();
    for (int64_t i = 0; i < n; ++i) simd::add(yd + i * out_, bd, out_);
  }
  if (profiling_) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < in_; ++j) {
        in_stat_[static_cast<size_t>(j)] =
            std::max(in_stat_[static_cast<size_t>(j)], std::fabs(x.at(i, j)));
      }
      for (int64_t j = 0; j < out_; ++j) {
        out_stat_[static_cast<size_t>(j)] =
            std::max(out_stat_[static_cast<size_t>(j)], std::fabs(y.at(i, j)));
      }
    }
  }
  return y;
}

Tensor Linear::backward(const Tensor& dy) {
  const int64_t n = cached_input_.size(0);
  // dW += dyᵀ @ x
  // rp-lint: allow(R9) training backward: gradients need the dense weight
  gemm(dy, cached_input_, weight_.grad, /*trans_a=*/true, /*trans_b=*/false, 1.0f, 1.0f);
  if (use_bias_) {
    float* bg = bias_.grad.data().data();
    const float* dyd = dy.data().data();
    for (int64_t i = 0; i < n; ++i) simd::add(bg, dyd + i * out_, out_);
  }
  Tensor dx = Tensor::scratch(Shape{n, in_});
  // rp-lint: allow(R9) training backward: gradients need the dense weight
  gemm(dy, weight_.value, dx);
  return dx;
}

void Linear::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (use_bias_) out.push_back(&bias_);
}

void Linear::collect_prunable(std::vector<PrunableSpec>& out) {
  PrunableSpec spec;
  spec.layer_name = name_;
  spec.weight = &weight_;
  spec.bias = use_bias_ ? &bias_ : nullptr;
  spec.out_units = out_;
  spec.in_groups = in_;
  spec.group_size = 1;
  spec.in_act_stat = &in_stat_;
  spec.out_act_stat = &out_stat_;
  spec.out_positions = 1;
  out.push_back(spec);
}

void Linear::set_profiling(bool on) {
  profiling_ = on;
  if (on) {
    std::fill(in_stat_.begin(), in_stat_.end(), 0.0f);
    std::fill(out_stat_.begin(), out_stat_.end(), 0.0f);
  }
}

void Linear::set_sparse(bool on) {
  sparse_ = on && sparse::mode() != sparse::Mode::kOff;
  sparse_w_ = sparse_ ? sparse::compile(weight_.value) : sparse::SparseWeight{};
}

int64_t Linear::flops() const { return weight_.active(); }

// ----- BatchNorm2d -------------------------------------------------------------

BatchNorm2d::BatchNorm2d(std::string name, int64_t channels, float momentum, float eps)
    : name_(std::move(name)),
      c_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(name_ + ".gamma", Tensor::ones(Shape{channels}), /*is_prunable=*/false),
      beta_(name_ + ".beta", Tensor::zeros(Shape{channels}), /*is_prunable=*/false),
      running_mean_(Shape{channels}),
      running_var_(Tensor::ones(Shape{channels})) {}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  check_4d(x, "BatchNorm2d");
  if (x.size(1) != c_) throw std::invalid_argument(name_ + ": channel mismatch");
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t plane = h * w;
  const float count = static_cast<float>(n * plane);
  flops_ = 2 * c_ * plane;

  // Cross-kind assignment from a scratch temp never steals the pointer: it
  // element-copies into the member's heap buffer, so after the first batch
  // this reuses capacity and performs no heap allocation.
  cached_xhat_ = Tensor::scratch(x.shape());
  cached_inv_std_.assign(static_cast<size_t>(c_), 0.0f);
  Tensor y = Tensor::scratch(x.shape());
  const float* xd = x.data().data();
  float* xh = cached_xhat_.data().data();
  float* yd = y.data().data();

  // Channels are independent: each owns its statistics, running buffers and
  // output planes, and sums its elements in the fixed (i, j) order, so the
  // channel-parallel loop is bit-identical to a serial one.
  parallel::parallel_for(0, c_, bn_grain(n * plane), [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      float m, v;
      if (train) {
        double s = 0.0;
        for (int64_t i = 0; i < n; ++i) {
          const float* p = xd + (i * c_ + c) * plane;
          for (int64_t j = 0; j < plane; ++j) s += p[j];
        }
        m = static_cast<float>(s / count);
        double sv = 0.0;
        for (int64_t i = 0; i < n; ++i) {
          const float* p = xd + (i * c_ + c) * plane;
          for (int64_t j = 0; j < plane; ++j) {
            const double d = p[j] - m;
            sv += d * d;
          }
        }
        v = static_cast<float>(sv / count);
        running_mean_[c] = (1 - momentum_) * running_mean_[c] + momentum_ * m;
        running_var_[c] = (1 - momentum_) * running_var_[c] + momentum_ * v;
      } else {
        m = running_mean_[c];
        v = running_var_[c];
      }
      const float inv_std = 1.0f / std::sqrt(v + eps_);
      cached_inv_std_[static_cast<size_t>(c)] = inv_std;
      const float g = gamma_.value[c], b = beta_.value[c];
      for (int64_t i = 0; i < n; ++i) {
        const float* p = xd + (i * c_ + c) * plane;
        float* q = xh + (i * c_ + c) * plane;
        float* o = yd + (i * c_ + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          q[j] = (p[j] - m) * inv_std;
          o[j] = g * q[j] + b;
        }
      }
    }
  });
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& dy) {
  const int64_t n = dy.size(0), h = dy.size(2), w = dy.size(3);
  const int64_t plane = h * w;
  const float count = static_cast<float>(n * plane);
  Tensor dx = Tensor::scratch(dy.shape());
  const float* dyd = dy.data().data();
  const float* xh = cached_xhat_.data().data();
  float* dxd = dx.data().data();

  // Channel-parallel like forward: γ/β gradients and dx planes are owned by
  // their channel, and each channel's sums keep their serial (i, j) order.
  parallel::parallel_for(0, c_, bn_grain(n * plane), [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float* d = dyd + (i * c_ + c) * plane;
        const float* q = xh + (i * c_ + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          sum_dy += d[j];
          sum_dy_xhat += static_cast<double>(d[j]) * q[j];
        }
      }
      gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
      beta_.grad[c] += static_cast<float>(sum_dy);

      const float g = gamma_.value[c];
      const float inv_std = cached_inv_std_[static_cast<size_t>(c)];
      const float mean_dy = static_cast<float>(sum_dy) / count;
      const float mean_dy_xhat = static_cast<float>(sum_dy_xhat) / count;
      for (int64_t i = 0; i < n; ++i) {
        const float* d = dyd + (i * c_ + c) * plane;
        const float* q = xh + (i * c_ + c) * plane;
        float* o = dxd + (i * c_ + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          o[j] = g * inv_std * (d[j] - mean_dy - q[j] * mean_dy_xhat);
        }
      }
    }
  });
  return dx;
}

void BatchNorm2d::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm2d::collect_buffers(std::vector<std::pair<std::string, Tensor*>>& out) {
  out.emplace_back(name_ + ".running_mean", &running_mean_);
  out.emplace_back(name_ + ".running_var", &running_var_);
}

// ----- ReLU --------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  cached_input_ = x;
  Tensor y = Tensor::scratch_copy(x.shape(), x.data().data());
  simd::relu(y.data().data(), y.numel());
  return y;
}

Tensor ReLU::backward(const Tensor& dy) {
  Tensor dx = Tensor::scratch_copy(dy.shape(), dy.data().data());
  simd::relu_grad(cached_input_.data().data(), dx.data().data(), dx.numel());
  return dx;
}

// ----- MaxPool2d -----------------------------------------------------------------

Tensor MaxPool2d::forward(const Tensor& x, bool /*train*/) {
  check_4d(x, "MaxPool2d");
  const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  if (h % 2 != 0 || w % 2 != 0) {
    throw std::invalid_argument("MaxPool2d: spatial dims must be even, got " +
                                x.shape().to_string());
  }
  in_shape_ = x.shape();
  const int64_t oh = h / 2, ow = w / 2;
  Tensor y = Tensor::scratch(Shape{n, c, oh, ow});
  arg_.assign(static_cast<size_t>(y.numel()), 0);
  const float* xd = x.data().data();
  float* yd = y.data().data();
  int64_t oi = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = xd + (i * c + ch) * h * w;
      for (int64_t py = 0; py < oh; ++py) {
        for (int64_t px = 0; px < ow; ++px, ++oi) {
          const int64_t base = (2 * py) * w + 2 * px;
          int64_t best = base;
          float bv = plane[base];
          for (const int64_t off : {int64_t{1}, w, w + 1}) {
            if (plane[base + off] > bv) {
              bv = plane[base + off];
              best = base + off;
            }
          }
          yd[oi] = bv;
          arg_[static_cast<size_t>(oi)] = static_cast<int32_t>((i * c + ch) * h * w + best);
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& dy) {
  Tensor dx = Tensor::scratch(in_shape_);
  float* dxd = dx.data().data();
  const float* dyd = dy.data().data();
  for (int64_t i = 0; i < dy.numel(); ++i) {
    dxd[arg_[static_cast<size_t>(i)]] += dyd[i];
  }
  return dx;
}

// ----- GlobalAvgPool --------------------------------------------------------------

Tensor GlobalAvgPool::forward(const Tensor& x, bool /*train*/) {
  check_4d(x, "GlobalAvgPool");
  in_shape_ = x.shape();
  const int64_t n = x.size(0), c = x.size(1), plane = x.size(2) * x.size(3);
  Tensor y = Tensor::scratch(Shape{n, c});
  const float* xd = x.data().data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* p = xd + (i * c + ch) * plane;
      float s = 0.0f;
      for (int64_t j = 0; j < plane; ++j) s += p[j];
      y.at(i, ch) = s / static_cast<float>(plane);
    }
  }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& dy) {
  Tensor dx = Tensor::scratch(in_shape_);
  const int64_t n = in_shape_[0], c = in_shape_[1], plane = in_shape_[2] * in_shape_[3];
  float* dxd = dx.data().data();
  const float inv = 1.0f / static_cast<float>(plane);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float g = dy.at(i, ch) * inv;
      float* p = dxd + (i * c + ch) * plane;
      for (int64_t j = 0; j < plane; ++j) p[j] = g;
    }
  }
  return dx;
}

// ----- Flatten ---------------------------------------------------------------------

Tensor Flatten::forward(const Tensor& x, bool /*train*/) {
  in_shape_ = x.shape();
  // scratch_copy instead of reshape(): same single copy, but the output is
  // always arena/pool-backed even when the input is the heap-kind batch.
  return Tensor::scratch_copy(Shape{x.size(0), x.numel() / x.size(0)}, x.data().data());
}

Tensor Flatten::backward(const Tensor& dy) {
  return Tensor::scratch_copy(in_shape_, dy.data().data());
}

// ----- Upsample2x --------------------------------------------------------------------

Tensor Upsample2x::forward(const Tensor& x, bool /*train*/) {
  check_4d(x, "Upsample2x");
  in_shape_ = x.shape();
  const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  Tensor y = Tensor::scratch(Shape{n, c, 2 * h, 2 * w});
  const float* xd = x.data().data();
  float* yd = y.data().data();
  for (int64_t i = 0; i < n * c; ++i) {
    const float* sp = xd + i * h * w;
    float* dp = yd + i * 4 * h * w;
    for (int64_t py = 0; py < h; ++py) {
      for (int64_t px = 0; px < w; ++px) {
        const float v = sp[py * w + px];
        float* q = dp + (2 * py) * (2 * w) + 2 * px;
        q[0] = v;
        q[1] = v;
        q[2 * w] = v;
        q[2 * w + 1] = v;
      }
    }
  }
  return y;
}

Tensor Upsample2x::backward(const Tensor& dy) {
  Tensor dx = Tensor::scratch(in_shape_);
  const int64_t n = in_shape_[0], c = in_shape_[1], h = in_shape_[2], w = in_shape_[3];
  const float* dyd = dy.data().data();
  float* dxd = dx.data().data();
  for (int64_t i = 0; i < n * c; ++i) {
    const float* sp = dyd + i * 4 * h * w;
    float* dp = dxd + i * h * w;
    for (int64_t py = 0; py < h; ++py) {
      for (int64_t px = 0; px < w; ++px) {
        const float* q = sp + (2 * py) * (2 * w) + 2 * px;
        dp[py * w + px] = q[0] + q[1] + q[2 * w] + q[2 * w + 1];
      }
    }
  }
  return dx;
}

// ----- Sequential --------------------------------------------------------------------

Tensor Sequential::forward(const Tensor& x, bool train) {
  if (children_.empty()) return Tensor::scratch_copy(x.shape(), x.data().data());
  auto y = children_.front()->forward(x, train);
  for (std::size_t i = 1; i < children_.size(); ++i) y = children_[i]->forward(y, train);
  return y;
}

Tensor Sequential::backward(const Tensor& dy) {
  if (children_.empty()) return Tensor::scratch_copy(dy.shape(), dy.data().data());
  auto it = children_.rbegin();
  auto g = (*it)->backward(dy);
  for (++it; it != children_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::collect_params(std::vector<Parameter*>& out) {
  for (auto& m : children_) m->collect_params(out);
}

void Sequential::collect_prunable(std::vector<PrunableSpec>& out) {
  for (auto& m : children_) m->collect_prunable(out);
}

void Sequential::collect_buffers(std::vector<std::pair<std::string, Tensor*>>& out) {
  for (auto& m : children_) m->collect_buffers(out);
}

void Sequential::set_profiling(bool on) {
  for (auto& m : children_) m->set_profiling(on);
}

void Sequential::set_sparse(bool on) {
  for (auto& m : children_) m->set_sparse(on);
}

int64_t Sequential::flops() const {
  int64_t f = 0;
  for (const auto& m : children_) f += m->flops();
  return f;
}

// ----- concat ---------------------------------------------------------------------------

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  check_4d(a, "concat_channels");
  check_4d(b, "concat_channels");
  if (a.size(0) != b.size(0) || a.size(2) != b.size(2) || a.size(3) != b.size(3)) {
    throw std::invalid_argument("concat_channels: incompatible shapes " + a.shape().to_string() +
                                " / " + b.shape().to_string());
  }
  const int64_t n = a.size(0), ca = a.size(1), cb = b.size(1), plane = a.size(2) * a.size(3);
  Tensor y = Tensor::scratch(Shape{n, ca + cb, a.size(2), a.size(3)});
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* yd = y.data().data();
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(yd + i * (ca + cb) * plane, ad + i * ca * plane,
                static_cast<size_t>(ca * plane) * sizeof(float));
    std::memcpy(yd + (i * (ca + cb) + ca) * plane, bd + i * cb * plane,
                static_cast<size_t>(cb * plane) * sizeof(float));
  }
  return y;
}

}  // namespace rp::nn
