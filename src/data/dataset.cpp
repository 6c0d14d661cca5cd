#include "data/dataset.hpp"

#include <stdexcept>

namespace rp::data {

std::vector<int64_t> Dataset::dense_labels(int64_t /*i*/) const {
  throw std::logic_error("dense_labels: not a segmentation dataset");
}

InMemoryDataset::InMemoryDataset(Tensor images, std::vector<int64_t> labels,
                                 std::string distribution)
    : images_(std::move(images)), labels_(std::move(labels)), distribution_(std::move(distribution)) {
  if (images_.ndim() != 4) {
    throw std::invalid_argument("InMemoryDataset: images must be [N, C, H, W]");
  }
  if (static_cast<int64_t>(labels_.size()) != images_.size(0)) {
    throw std::invalid_argument("InMemoryDataset: label count mismatch");
  }
}

InMemoryDataset::InMemoryDataset(Tensor images, std::vector<int64_t> labels,
                                 std::vector<std::vector<int64_t>> dense, std::string distribution)
    : InMemoryDataset(std::move(images), std::move(labels), std::move(distribution)) {
  dense_ = std::move(dense);
  if (static_cast<int64_t>(dense_.size()) != images_.size(0)) {
    throw std::invalid_argument("InMemoryDataset: dense label count mismatch");
  }
  const size_t plane = static_cast<size_t>(images_.size(2) * images_.size(3));
  for (const auto& d : dense_) {
    if (d.size() != plane) throw std::invalid_argument("InMemoryDataset: dense label size");
  }
}

std::vector<int64_t> InMemoryDataset::dense_labels(int64_t i) const {
  if (dense_.empty()) return Dataset::dense_labels(i);
  return dense_[static_cast<size_t>(i)];
}

Batch make_batch(const Dataset& ds, std::span<const int64_t> indices,
                 const ImageTransform* transform, Rng* rng) {
  if (indices.empty()) throw std::invalid_argument("make_batch: empty index list");
  auto first = ds.image(indices[0]);
  const auto d = first.shape().dims();
  const bool seg = ds.segmentation();
  Tensor images(Shape{static_cast<int64_t>(indices.size()), d[0], d[1], d[2]});
  std::vector<int64_t> labels(seg ? 0 : indices.size(), 0);

  for (size_t b = 0; b < indices.size(); ++b) {
    auto img = (b == 0) ? std::move(first) : ds.image(indices[b]);
    if (transform) {
      if (!rng) throw std::invalid_argument("make_batch: transform requires an rng");
      img = (*transform)(img, *rng);
    }
    images.set_slice0(static_cast<int64_t>(b), img);
    if (seg) {
      auto dl = ds.dense_labels(indices[b]);
      labels.insert(labels.end(), dl.begin(), dl.end());
    } else {
      labels[b] = ds.label(indices[b]);
    }
  }
  return Batch{std::move(images), std::move(labels)};
}

std::shared_ptr<InMemoryDataset> bake(const Dataset& ds, const ImageTransform& transform,
                                      Rng& rng, const std::string& distribution) {
  const int64_t n = ds.size();
  Tensor first = transform(ds.image(0), rng);
  const auto d = first.shape().dims();
  Tensor images(Shape{n, d[0], d[1], d[2]});
  images.set_slice0(0, first);
  std::vector<int64_t> labels(static_cast<size_t>(n));
  labels[0] = ds.label(0);
  for (int64_t i = 1; i < n; ++i) {
    images.set_slice0(i, transform(ds.image(i), rng));
    labels[static_cast<size_t>(i)] = ds.label(i);
  }
  if (!ds.segmentation()) {
    return std::make_shared<InMemoryDataset>(std::move(images), std::move(labels), distribution);
  }
  std::vector<std::vector<int64_t>> dense(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) dense[static_cast<size_t>(i)] = ds.dense_labels(i);
  return std::make_shared<InMemoryDataset>(std::move(images), std::move(labels), std::move(dense),
                                           distribution);
}

std::shared_ptr<InMemoryDataset> take(const Dataset& ds, int64_t n) {
  n = std::min(n, ds.size());
  if (n <= 0) throw std::invalid_argument("take: need at least one sample");
  Tensor first = ds.image(0);
  const auto d = first.shape().dims();
  Tensor images(Shape{n, d[0], d[1], d[2]});
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    images.set_slice0(i, ds.image(i));
    labels[static_cast<size_t>(i)] = ds.label(i);
  }
  if (!ds.segmentation()) {
    return std::make_shared<InMemoryDataset>(std::move(images), std::move(labels),
                                             ds.distribution());
  }
  std::vector<std::vector<int64_t>> dense(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) dense[static_cast<size_t>(i)] = ds.dense_labels(i);
  return std::make_shared<InMemoryDataset>(std::move(images), std::move(labels), std::move(dense),
                                           ds.distribution());
}

}  // namespace rp::data
