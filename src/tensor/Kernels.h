//===- tensor/Kernels.h - Blocked compute-kernel engine --------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The high-performance engine under the wootz::gemm entry points and the
/// Conv2D batch loops: cache-blocked, register-tiled GEMM with packed
/// panels, a fused im2col+pack convolution path, and per-thread reusable
/// pack buffers.
///
/// Threading model. Every kernel runs serially on its caller's thread.
/// Concurrency comes from the layers above: the TaskGraph's pipeline
/// workers and the serving Batcher's workers each call kernels on their
/// own thread, with their own thread-local KernelScratch, so concurrent
/// calls never share mutable state.
///
/// Determinism. The K summation order of every output element is fixed
/// (KC slices in order, sequential k within the micro-kernel), and
/// convolutions walk samples and GEMMs walk MC row blocks in order, so
/// the same inputs always produce bit-identical outputs.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TENSOR_KERNELS_H
#define WOOTZ_TENSOR_KERNELS_H

#include "src/support/Aligned.h"

#include <cstddef>
#include <vector>

namespace wootz {

/// Parameters of a 2-D convolution (square kernel, same stride/pad in
/// both spatial dimensions). Lives with the kernels so the fused
/// im2col+pack path can do its stride arithmetic without depending on
/// the higher-level op layer.
struct ConvGeometry {
  int InChannels = 0;
  int OutChannels = 0;
  int KernelSize = 1;
  int Stride = 1;
  int Pad = 0;

  /// Output spatial extent for an input extent of \p In.
  int outExtent(int In) const {
    return (In + 2 * Pad - KernelSize) / Stride + 1;
  }
};

//===----------------------------------------------------------------------===//
// Scratch and packed operands
//===----------------------------------------------------------------------===//

/// A growable cache-line-aligned float buffer. ensure() never shrinks,
/// so steady-state kernel calls do not allocate.
class AlignedBuffer {
public:
  /// Returns a pointer to at least \p Count floats. Contents of newly
  /// grown storage are zero; previously handed-out contents survive
  /// until the next growth.
  float *ensure(size_t Count) {
    if (Storage.size() < Count)
      Storage.resize(Count);
    return Storage.data();
  }

  size_t capacity() const { return Storage.size(); }

private:
  std::vector<float, AlignedAllocator<float>> Storage;
};

/// The per-thread scratch pool of the kernel layer: GEMM pack panels and
/// the backward-path column gradients. Keyed by thread (thread_local),
/// so concurrent callers never contend and repeated kernel calls
/// on one thread reuse the same allocations. The eval path needs no
/// column buffer at all: convForwardFused() packs panels straight from
/// the image.
struct KernelScratch {
  AlignedBuffer PackA;    ///< Packed MC x KC panel of A.
  AlignedBuffer PackB;    ///< Packed KC x NC panel of B.
  AlignedBuffer GradCols; ///< Per-sample column gradients (backward).

  /// The calling thread's scratch instance.
  static KernelScratch &forCurrentThread();
};

/// A whole GEMM operand pre-packed into the blocked engine's panel
/// layout. Packing normally happens per call into per-thread scratch;
/// a model that is frozen once and run many times (wootz::plan, which
/// serves every registered model) instead packs each weight matrix once
/// and hands the panels to every subsequent product, which removes the
/// per-request packing traffic entirely. The layout mirrors
/// the engine's block iteration order exactly, so a packed product
/// performs the same floating-point operations in the same order as a
/// scratch-packed one and the results are bit-identical.
struct PackedPanels {
  std::vector<float, AlignedAllocator<float>> Data;
  int Extent = 0; ///< Logical M (A operand) or N (B operand).
  int Depth = 0;  ///< Logical K.

  bool empty() const { return Data.empty(); }
};

/// Packs a full M x K A operand (addressed as A[i * RowStride +
/// k * ColStride]) into KC-slice-major, MC-block, MR-panel order.
PackedPanels packGemmA(const float *A, size_t RowStride, size_t ColStride,
                       int M, int K);

/// Packs a full K x N B operand (addressed as B[k * RowStride +
/// j * ColStride]) into NC-block-major, KC-slice, NR-panel order.
PackedPanels packGemmB(const float *B, size_t RowStride, size_t ColStride,
                       int K, int N);

//===----------------------------------------------------------------------===//
// Fused im2col+pack convolution forward
//===----------------------------------------------------------------------===//

/// Computes the eval-mode convolution forward for a whole NCHW batch:
/// for each sample, Out = Weights (OutChannels x ColRows) times the
/// sample's im2col matrix (ColRows x OutH*OutW) plus optional \p Bias —
/// without ever materializing the im2col matrix. B panels are packed
/// directly from \p Images with stride arithmetic over \p G, so the
/// only im2col-shaped traffic left is the packed panel itself (which
/// the GEMM needed anyway). Samples run in order on the calling thread,
/// and the output is bit-identical to a blocked GEMM over a
/// materialized im2col matrix.
///
/// \p WeightsPre, when non-null, supplies the weight matrix pre-packed
/// by packGemmA (eval Conv2D per call, plan freeze); otherwise panels are
/// packed per sample from \p Weights (row-major OutChannels x ColRows,
/// i.e. OIHW flattened). \p FuseReLU clamps each sample's output to
/// [0, inf) as an epilogue.
void convForwardFused(const float *Images, int Batch, int Height,
                      int Width, const ConvGeometry &G,
                      const PackedPanels *WeightsPre, const float *Weights,
                      const float *Bias, bool FuseReLU, float *Out);

namespace detail {

/// The blocked GEMM engine: C (MxN, row-major, leading dimension N)
/// gets A * B where the operands are addressed through explicit strides,
/// A(i, k) = A[i * ARowStride + k * AColStride] and B(k, j) =
/// B[k * BRowStride + j * BColStride]; the transpose entry points are
/// stride permutations of this one routine. When \p Accumulate is false
/// C is overwritten, and \p RowBias (if non-null, length M) is fused
/// into the first write of every element; with \p Accumulate true the
/// product is added to C and \p RowBias must be null.
void blockedGemm(const float *A, size_t ARowStride, size_t AColStride,
                 const float *B, size_t BRowStride, size_t BColStride,
                 float *C, int M, int K, int N, bool Accumulate,
                 const float *RowBias);

/// blockedGemm() with either operand optionally supplied pre-packed
/// (packGemmA / packGemmB). A null \p APre / \p BPre falls back to
/// packing that operand per call from the corresponding raw pointer; a
/// non-null one makes the raw pointer and strides of that operand
/// unused (pass null / 0).
void blockedGemmPacked(const PackedPanels *APre, const float *A,
                       size_t ARowStride, size_t AColStride,
                       const PackedPanels *BPre, const float *B,
                       size_t BRowStride, size_t BColStride, float *C,
                       int M, int K, int N, bool Accumulate,
                       const float *RowBias);

} // namespace detail

} // namespace wootz

#endif // WOOTZ_TENSOR_KERNELS_H
