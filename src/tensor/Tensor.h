//===- tensor/Tensor.h - Dense float tensor --------------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense row-major float tensor of rank 1-4. Convolutional data uses
/// the NCHW layout (batch, channels, height, width) throughout the
/// library; convolution filters use OIHW (out-channels, in-channels,
/// height, width).
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TENSOR_TENSOR_H
#define WOOTZ_TENSOR_TENSOR_H

#include "src/support/Aligned.h"

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace wootz {

/// Backing storage of a Tensor: cache-line aligned so the compute
/// kernels (tensor/Kernels.h) get aligned vector access.
using TensorStorage = std::vector<float, AlignedAllocator<float>>;

/// The shape of a tensor: between one and four extents.
class Shape {
public:
  Shape() = default;
  Shape(std::initializer_list<int> Dims) : Dims(Dims) { validate(); }
  explicit Shape(std::vector<int> Dims) : Dims(std::move(Dims)) {
    validate();
  }

  /// Number of dimensions.
  int rank() const { return static_cast<int>(Dims.size()); }

  /// Extent of dimension \p Axis.
  int operator[](int Axis) const {
    assert(Axis >= 0 && Axis < rank() && "shape axis out of range");
    return Dims[Axis];
  }

  /// Total element count (product of extents); 0 for an empty shape.
  size_t elementCount() const;

  bool operator==(const Shape &Other) const { return Dims == Other.Dims; }
  bool operator!=(const Shape &Other) const { return !(*this == Other); }

  /// Renders as "[N, C, H, W]" for diagnostics.
  std::string str() const;

private:
  void validate() const {
    assert(!Dims.empty() && Dims.size() <= 4 && "tensor rank must be 1-4");
    for ([[maybe_unused]] int Dim : Dims)
      assert(Dim > 0 && "tensor extents must be positive");
  }

  std::vector<int> Dims;
};

/// A dense float tensor. Copyable; copies are deep.
class Tensor {
public:
  /// Creates an empty (rank-0 placeholder) tensor.
  Tensor() = default;

  /// Creates a zero-filled tensor of the given \p Shape.
  explicit Tensor(Shape Shape)
      : TensorShape(std::move(Shape)),
        Data(TensorShape.elementCount(), 0.0f) {}

  /// Creates a tensor with explicit contents (copied into the aligned
  /// storage); sizes must match.
  Tensor(Shape Shape, const std::vector<float> &Values);

  /// True if this tensor has never been given a shape.
  bool empty() const { return Data.empty(); }

  const Shape &shape() const { return TensorShape; }
  size_t size() const { return Data.size(); }

  float *data() { return Data.data(); }
  const float *data() const { return Data.data(); }

  float &operator[](size_t I) {
    assert(I < Data.size() && "tensor index out of range");
    return Data[I];
  }
  float operator[](size_t I) const {
    assert(I < Data.size() && "tensor index out of range");
    return Data[I];
  }

  /// Element access for rank-4 tensors (NCHW).
  float &at(int N, int C, int H, int W);
  float at(int N, int C, int H, int W) const;

  /// Element access for rank-2 tensors (rows x cols).
  float &at(int Row, int Col);
  float at(int Row, int Col) const;

  /// Sets every element to \p Value.
  void fill(float Value);

  /// Sets every element to zero.
  void zero() { fill(0.0f); }

  /// Reinterprets the tensor with a new shape of equal element count.
  void reshape(Shape NewShape);

  /// Sum of all elements.
  double sum() const;

  /// Mean of all elements; 0 for empty tensors.
  double mean() const;

  /// Square root of the mean squared element.
  double rmsNorm() const;

private:
  Shape TensorShape;
  TensorStorage Data;
};

} // namespace wootz

#endif // WOOTZ_TENSOR_TENSOR_H
