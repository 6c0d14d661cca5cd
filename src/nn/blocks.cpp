#include "nn/blocks.hpp"

#include <algorithm>
#include <cstring>

namespace rp::nn {

namespace {

/// Builds conv + BN wired so that the conv knows the BN affine parameters
/// that must be zeroed when a filter is structurally pruned.
std::pair<ModulePtr, ModulePtr> make_conv_bn(const std::string& name, int64_t in_c, int64_t out_c,
                                             int64_t k, int64_t stride, int64_t pad, int64_t in_h,
                                             int64_t in_w, Rng& rng) {
  auto conv = std::make_unique<Conv2d>(name + ".conv", in_c, out_c, k, stride, pad, in_h, in_w,
                                       /*use_bias=*/false, rng);
  auto bn = std::make_unique<BatchNorm2d>(name + ".bn", out_c);
  conv->add_out_coupled(&bn->gamma());
  conv->add_out_coupled(&bn->beta());
  return {std::move(conv), std::move(bn)};
}

}  // namespace

// ----- ResidualBlock ------------------------------------------------------------

ResidualBlock::ResidualBlock(std::string name, int64_t in_c, int64_t out_c, int64_t stride,
                             int64_t in_h, int64_t in_w, Rng& rng)
    : name_(std::move(name)), main_(name_ + ".main") {
  auto [conv1, bn1] = make_conv_bn(name_ + ".1", in_c, out_c, 3, stride, 1, in_h, in_w, rng);
  const int64_t mid_h = in_h / stride, mid_w = in_w / stride;
  auto [conv2, bn2] = make_conv_bn(name_ + ".2", out_c, out_c, 3, 1, 1, mid_h, mid_w, rng);
  main_.add(std::move(conv1));
  main_.add(std::move(bn1));
  main_.add(std::make_unique<ReLU>());
  main_.add(std::move(conv2));
  main_.add(std::move(bn2));

  if (stride != 1 || in_c != out_c) {
    auto sc = std::make_unique<Sequential>(name_ + ".shortcut");
    auto [pconv, pbn] = make_conv_bn(name_ + ".proj", in_c, out_c, 1, stride, 0, in_h, in_w, rng);
    sc->add(std::move(pconv));
    sc->add(std::move(pbn));
    shortcut_ = std::move(sc);
  }
}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  auto y = main_.forward(x, train);
  if (shortcut_) {
    y += shortcut_->forward(x, train);
  } else {
    y += x;
  }
  cached_sum_ = y;
  for (float& v : y.data()) v = std::max(v, 0.0f);
  return y;
}

Tensor ResidualBlock::backward(const Tensor& dy) {
  Tensor g = dy;
  {
    const auto sd = cached_sum_.data();
    auto gd = g.data();
    for (size_t i = 0; i < gd.size(); ++i) {
      if (sd[i] <= 0.0f) gd[i] = 0.0f;
    }
  }
  auto dx = main_.backward(g);
  if (shortcut_) {
    dx += shortcut_->backward(g);
  } else {
    dx += g;
  }
  return dx;
}

void ResidualBlock::collect_params(std::vector<Parameter*>& out) {
  main_.collect_params(out);
  if (shortcut_) shortcut_->collect_params(out);
}

void ResidualBlock::collect_prunable(std::vector<PrunableSpec>& out) {
  main_.collect_prunable(out);
  if (shortcut_) shortcut_->collect_prunable(out);
}

void ResidualBlock::collect_buffers(std::vector<std::pair<std::string, Tensor*>>& out) {
  main_.collect_buffers(out);
  if (shortcut_) shortcut_->collect_buffers(out);
}

void ResidualBlock::set_profiling(bool on) {
  main_.set_profiling(on);
  if (shortcut_) shortcut_->set_profiling(on);
}

void ResidualBlock::set_sparse(bool on) {
  main_.set_sparse(on);
  if (shortcut_) shortcut_->set_sparse(on);
}

int64_t ResidualBlock::flops() const {
  return main_.flops() + (shortcut_ ? shortcut_->flops() : 0);
}

// ----- DenseLayer ------------------------------------------------------------------

DenseLayer::DenseLayer(std::string name, int64_t in_c, int64_t growth, int64_t in_h, int64_t in_w,
                       Rng& rng)
    : name_(std::move(name)), in_c_(in_c), branch_(name_ + ".branch") {
  branch_.add(std::make_unique<BatchNorm2d>(name_ + ".bn", in_c));
  branch_.add(std::make_unique<ReLU>());
  branch_.add(std::make_unique<Conv2d>(name_ + ".conv", in_c, growth, 3, 1, 1, in_h, in_w,
                                       /*use_bias=*/false, rng));
}

Tensor DenseLayer::forward(const Tensor& x, bool train) {
  return concat_channels(x, branch_.forward(x, train));
}

Tensor DenseLayer::backward(const Tensor& dy) {
  // Split the incoming gradient into the passthrough part (first in_c_
  // channels) and the branch part (remaining channels).
  const int64_t n = dy.size(0), c = dy.size(1), plane = dy.size(2) * dy.size(3);
  const int64_t cb = c - in_c_;
  Tensor dx(Shape{n, in_c_, dy.size(2), dy.size(3)});
  Tensor dbranch(Shape{n, cb, dy.size(2), dy.size(3)});
  const float* dyd = dy.data().data();
  float* dxd = dx.data().data();
  float* dbd = dbranch.data().data();
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(dxd + i * in_c_ * plane, dyd + i * c * plane,
                static_cast<size_t>(in_c_ * plane) * sizeof(float));
    std::memcpy(dbd + i * cb * plane, dyd + (i * c + in_c_) * plane,
                static_cast<size_t>(cb * plane) * sizeof(float));
  }
  dx += branch_.backward(dbranch);
  return dx;
}

void DenseLayer::collect_params(std::vector<Parameter*>& out) { branch_.collect_params(out); }
void DenseLayer::collect_prunable(std::vector<PrunableSpec>& out) {
  branch_.collect_prunable(out);
}
void DenseLayer::collect_buffers(std::vector<std::pair<std::string, Tensor*>>& out) {
  branch_.collect_buffers(out);
}
void DenseLayer::set_profiling(bool on) { branch_.set_profiling(on); }

void DenseLayer::set_sparse(bool on) { branch_.set_sparse(on); }

// ----- helpers -----------------------------------------------------------------------

ModulePtr make_dense_transition(const std::string& name, int64_t in_c, int64_t out_c, int64_t in_h,
                                int64_t in_w, Rng& rng) {
  auto seq = std::make_unique<Sequential>(name);
  seq->add(std::make_unique<BatchNorm2d>(name + ".bn", in_c));
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(name + ".conv", in_c, out_c, 1, 2, 0, in_h, in_w,
                                    /*use_bias=*/false, rng));
  return seq;
}

ModulePtr make_conv_bn_relu(const std::string& name, int64_t in_c, int64_t out_c, int64_t stride,
                            int64_t in_h, int64_t in_w, Rng& rng) {
  auto seq = std::make_unique<Sequential>(name);
  auto [conv, bn] = make_conv_bn(name, in_c, out_c, 3, stride, 1, in_h, in_w, rng);
  seq->add(std::move(conv));
  seq->add(std::move(bn));
  seq->add(std::make_unique<ReLU>());
  return seq;
}

}  // namespace rp::nn
