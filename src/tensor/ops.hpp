#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace rp {

// Reductions ------------------------------------------------------------------

/// Sum of all elements.
float sum(const Tensor& t);
/// Arithmetic mean of all elements (0 for empty tensors).
float mean(const Tensor& t);
/// Largest element; throws on empty input.
float max(const Tensor& t);
/// Smallest element; throws on empty input.
float min(const Tensor& t);
/// Flat index of the largest element; throws on empty input.
int64_t argmax(const Tensor& t);
/// Number of nonzero elements (used for mask sparsity accounting).
int64_t count_nonzero(const Tensor& t);

// Norms -----------------------------------------------------------------------

float l1_norm(const Tensor& t);
float l2_norm(const Tensor& t);
float linf_norm(const Tensor& t);
/// ||a - b||_2; shapes must match.
float l2_distance(const Tensor& a, const Tensor& b);

// Row-wise helpers for [N, C] matrices -----------------------------------------

/// Row-wise softmax of a [N, C] logits matrix.
Tensor softmax_rows(const Tensor& logits);
/// Row-wise softmax in place — the allocation-free core of softmax_rows,
/// bit-identical to it.
void softmax_rows_inplace(Tensor& m);
/// Row-wise argmax of a [N, C] matrix, one entry per row.
std::vector<int64_t> argmax_rows(const Tensor& m);
/// Allocation-free argmax_rows: writes one entry per row into `out`, which
/// must hold exactly N elements.
void argmax_rows_into(const Tensor& m, std::span<int64_t> out);
/// Row-wise log-sum-exp of a [N, C] matrix (numerically stable).
std::vector<float> logsumexp_rows(const Tensor& m);
/// Allocation-free logsumexp_rows: writes one entry per row into `out`,
/// which must hold exactly N elements.
void logsumexp_rows_into(const Tensor& m, std::span<float> out);

// Elementwise maps --------------------------------------------------------------

/// Clamps every element into [lo, hi].
Tensor clamp(Tensor t, float lo, float hi);
/// max(t, 0) elementwise.
Tensor relu(Tensor t);

}  // namespace rp
