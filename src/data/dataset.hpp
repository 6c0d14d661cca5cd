#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace rp::data {

/// Read-only image dataset. Images are [C, H, W] float tensors with values
/// in [0, 1] (corruptions and noise injection operate in this range and
/// clamp back into it). Classification datasets expose one integer label per
/// image; segmentation datasets expose one integer label per pixel.
class Dataset {
 public:
  virtual ~Dataset() = default;

  virtual int64_t size() const = 0;
  virtual Tensor image(int64_t i) const = 0;
  virtual int64_t label(int64_t i) const = 0;

  /// Per-pixel labels (row-major H*W), only for segmentation datasets.
  virtual std::vector<int64_t> dense_labels(int64_t i) const;
  virtual bool segmentation() const { return false; }

  /// Human-readable distribution name ("nominal", "gauss/3", ...), used in
  /// experiment reports.
  virtual std::string distribution() const { return "nominal"; }
};

using DatasetPtr = std::shared_ptr<const Dataset>;

/// Dataset materialized in memory; the concrete type produced by the
/// synthetic generators and by corruption baking.
class InMemoryDataset final : public Dataset {
 public:
  /// Classification: images [N, C, H, W], one label per image.
  InMemoryDataset(Tensor images, std::vector<int64_t> labels, std::string distribution);
  /// Segmentation: adds per-pixel labels, H*W entries per image.
  InMemoryDataset(Tensor images, std::vector<int64_t> labels,
                  std::vector<std::vector<int64_t>> dense, std::string distribution);

  int64_t size() const override { return images_.size(0); }
  Tensor image(int64_t i) const override { return images_.slice0(i); }
  int64_t label(int64_t i) const override { return labels_[static_cast<size_t>(i)]; }
  std::vector<int64_t> dense_labels(int64_t i) const override;
  bool segmentation() const override { return !dense_.empty(); }
  std::string distribution() const override { return distribution_; }

  const Tensor& images() const { return images_; }

 private:
  Tensor images_;
  std::vector<int64_t> labels_;
  std::vector<std::vector<int64_t>> dense_;
  std::string distribution_;
};

/// Per-sample image transform (augmentation, corruption, noise).
using ImageTransform = std::function<Tensor(const Tensor& image, Rng& rng)>;

/// A materialized minibatch.
struct Batch {
  Tensor images;                ///< [B, C, H, W]
  std::vector<int64_t> labels;  ///< B entries, or B*H*W for segmentation
};

/// Assembles a batch from dataset rows `indices`, applying `transform` (if
/// any) to each image.
Batch make_batch(const Dataset& ds, std::span<const int64_t> indices,
                 const ImageTransform* transform = nullptr, Rng* rng = nullptr);

/// Applies a transform to every image of a dataset once and materializes the
/// result ("baking" a corrupted test set, as the -C benchmark suites do).
std::shared_ptr<InMemoryDataset> bake(const Dataset& ds, const ImageTransform& transform,
                                      Rng& rng, const std::string& distribution);

/// First `n` samples of `ds` as a materialized subset (deterministic).
std::shared_ptr<InMemoryDataset> take(const Dataset& ds, int64_t n);

}  // namespace rp::data
