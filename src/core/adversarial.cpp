#include "core/adversarial.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace rp::core {

Tensor input_gradient(nn::Network& net, const Tensor& image, int64_t label) {
  if (image.ndim() != 3) throw std::invalid_argument("input_gradient: expected [C, H, W]");
  Tensor batch(Shape{1, image.size(0), image.size(1), image.size(2)});
  batch.set_slice0(0, image);
  Tensor logits = net.forward(batch, /*train=*/false);
  const std::vector<int64_t> labels{label};
  const auto loss = nn::softmax_cross_entropy(logits, labels);
  net.zero_grad();  // parameter gradients are a side effect we discard
  Tensor dx = net.backward(loss.dlogits);
  net.zero_grad();
  return dx.slice0(0);
}

Tensor fgsm(nn::Network& net, const Tensor& image, int64_t label, float eps) {
  const Tensor g = input_gradient(net, image, label);
  Tensor adv = image;
  for (int64_t i = 0; i < adv.numel(); ++i) {
    adv[i] = std::clamp(adv[i] + eps * (g[i] > 0 ? 1.0f : (g[i] < 0 ? -1.0f : 0.0f)), 0.0f, 1.0f);
  }
  return adv;
}

Tensor pgd(nn::Network& net, const Tensor& image, int64_t label, float eps, float alpha,
           int steps) {
  if (steps < 1) throw std::invalid_argument("pgd: need at least one step");
  Tensor adv = image;
  for (int step = 0; step < steps; ++step) {
    const Tensor g = input_gradient(net, adv, label);
    for (int64_t i = 0; i < adv.numel(); ++i) {
      float v = adv[i] + alpha * (g[i] > 0 ? 1.0f : (g[i] < 0 ? -1.0f : 0.0f));
      // Project into the eps-ball around the clean image, then into [0, 1].
      v = std::clamp(v, image[i] - eps, image[i] + eps);
      adv[i] = std::clamp(v, 0.0f, 1.0f);
    }
  }
  return adv;
}

std::string to_string(Attack a) { return a == Attack::Fgsm ? "FGSM" : "PGD"; }

double adversarial_accuracy(nn::Network& net, const data::Dataset& ds, Attack attack, float eps,
                            int64_t n_images) {
  n_images = std::min(n_images, ds.size());
  if (n_images < 1) throw std::invalid_argument("adversarial_accuracy: empty dataset");
  int64_t hits = 0;
  for (int64_t i = 0; i < n_images; ++i) {
    const Tensor clean = ds.image(i);
    const int64_t label = ds.label(i);
    const Tensor x = eps > 0.0f
                         ? (attack == Attack::Fgsm ? fgsm(net, clean, label, eps)
                                                   : pgd(net, clean, label, eps, eps / 4.0f, 8))
                         : ds.image(i);
    Tensor batch(Shape{1, x.size(0), x.size(1), x.size(2)});
    batch.set_slice0(0, x);
    int64_t pred = 0;
    argmax_rows_into(net.forward(batch, /*train=*/false), {&pred, 1});
    hits += (pred == label);
  }
  return static_cast<double>(hits) / static_cast<double>(n_images);
}

}  // namespace rp::core
