//===- tensor/Kernels.h - Blocked compute-kernel engine --------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The high-performance engine under the wootz::gemm entry points and the
/// Conv2D batch loops: cache-blocked, register-tiled GEMM with packed
/// panels, a fused im2col+pack convolution path, a process-wide kernel
/// worker pool, and per-thread reusable pack buffers.
///
/// Threading model. Kernels are threaded at two levels:
///  - inter-op: Conv2D::forward/backward parallelize over the batch
///    dimension via kernelParallelFor();
///  - intra-op: a large single GEMM parallelizes over its row-panel
///    (MC) blocks, and convForwardFused() over (sample, column-chunk)
///    tasks, also via kernelParallelFor().
/// Whether a call actually fans out is decided per problem by a
/// measured-cost heuristic (kernelCostModel() / chooseConvSplit()): the
/// pool-handoff latency and the achievable parallel speedup are
/// calibrated once per worker count at startup, and a call is only split
/// when the measured model predicts the split wins. kernelParallelFor()
/// never nests: a body that itself calls kernelParallelFor() (e.g. a
/// GEMM issued from inside the batch-parallel convolution) runs that
/// inner loop inline on the calling worker, which keeps the fixed-size
/// pool deadlock-free by construction.
///
/// Determinism guarantee. Work is split into chunks whose boundaries
/// depend only on the problem size, never on the worker count, and every
/// floating-point reduction is performed in chunk order. The K summation
/// order of every output element is fixed (KC slices in order, sequential
/// k within the micro-kernel) no matter how the M/N space is chunked.
/// Therefore the same inputs produce bit-identical outputs for any
/// setKernelWorkers() value and any split decision, including fully
/// serial execution.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TENSOR_KERNELS_H
#define WOOTZ_TENSOR_KERNELS_H

#include "src/support/Aligned.h"

#include <cstddef>
#include <functional>
#include <string>
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

/// Sets the number of worker threads the compute kernels may use,
/// process-wide. 1 means serial execution (the default); 0 means one
/// worker per hardware thread (the same convention as PipelineOptions::
/// Workers). Not safe to call while kernels are executing on other
/// threads. The initial value can be overridden with the
/// WOOTZ_KERNEL_WORKERS environment variable.
void setKernelWorkers(unsigned Count);

/// The resolved kernel worker count (never 0: a hardware-concurrency
/// request is reported as the concrete thread count).
unsigned kernelWorkers();

/// Parses a WOOTZ_KERNEL_WORKERS value: a non-negative integer no larger
/// than 4096, where 0 requests one worker per hardware thread. Returns
/// the resolved worker count. Rejects negative, non-numeric, trailing-
/// garbage, and out-of-range input: \p Warning (if non-null) receives a
/// one-line description and the result falls back to 1 (serial), never
/// silently wrapping through unsigned. Exported for tests.
unsigned parseKernelWorkers(const char *Text, std::string *Warning);

/// True while the calling thread is executing inside a
/// kernelParallelFor() body; used by the kernels to run nested parallel
/// loops inline.
bool inKernelParallelRegion();

/// Runs \p Body(Begin, End) over [0, Count) in chunks of at most
/// \p Grain indices on the kernel worker pool and waits. Chunk
/// boundaries depend only on \p Count and \p Grain (see the determinism
/// guarantee above). Runs inline when the pool is serial, when there is
/// a single chunk, or when called from inside another
/// kernelParallelFor() body.
void kernelParallelFor(size_t Count, size_t Grain,
                       const std::function<void(size_t, size_t)> &Body);

//===----------------------------------------------------------------------===//
// Measured-cost threading heuristic
//===----------------------------------------------------------------------===//

/// What one startup calibration measured about the current worker
/// configuration. All figures are medians of repeated timings, so a
/// model is stable across calls; it is computed lazily once per worker
/// count and then cached.
struct KernelCostModel {
  /// Worker count this model was calibrated for.
  unsigned Workers = 1;
  /// Round-trip latency of one kernelParallelFor() handoff to the pool
  /// (enqueue + wake + join), in seconds. 0 when serial.
  double DispatchSeconds = 0.0;
  /// Single-thread throughput of the blocked GEMM engine, in seconds
  /// per floating-point operation.
  double SecondsPerFlop = 0.0;
  /// Measured wall-clock speedup of conv-sized GEMM tasks run on the
  /// pool versus inline. On an oversubscribed host (more workers than
  /// cores) this comes out below 1, which is exactly what makes the
  /// heuristic fall back to serial there.
  double ParallelSpeedup = 1.0;
};

/// The cached cost model for the current kernelWorkers() setting,
/// calibrating it first if this worker count has not been measured yet
/// (a few tens of milliseconds, once per process per worker count).
KernelCostModel kernelCostModel();

/// True when fanning \p Flops of blocked-GEMM work out to the pool is
/// predicted to beat running it inline, per the calibrated cost model:
/// the time saved by parallel execution must clear the dispatch latency
/// with margin. Always false for a serial pool; true inside an existing
/// parallel region (nested loops run inline anyway, so the call is
/// free either way).
bool parallelWorthwhile(double Flops);

/// How convForwardFused() distributes one batched convolution.
enum class ConvSplitKind {
  Serial,  ///< All tasks inline on the calling thread.
  InterOp, ///< One task per sample (batch parallelism).
  IntraOp, ///< Samples additionally split into column chunks.
};

/// A concrete split decision: tasks are (sample, column-chunk) pairs;
/// chunk boundaries depend only on the problem size, so any split of
/// the same problem produces bit-identical outputs.
struct ConvSplit {
  ConvSplitKind Kind = ConvSplitKind::Serial;
  /// Output columns per task, NR-aligned except for the trailing chunk;
  /// equal to the whole per-sample column count unless Kind is IntraOp.
  int ColumnChunk = 0;
  /// Total task count (Batch x chunks per sample).
  size_t Tasks = 1;
};

/// Picks the split for a batch of \p Batch conv GEMMs of M x K x
/// \p ColCols each, using the calibrated cost model: serial when the
/// problem cannot amortize a pool handoff (or the pool cannot beat
/// inline execution on this host), inter-op when the batch alone loads
/// the pool, intra-op column chunking when it does not.
ConvSplit chooseConvSplit(int Batch, int M, int K, int ColCols);

/// Number of names in the ConvSplitKind enum, and a printable name per
/// kind (bench reporting).
const char *convSplitKindName(ConvSplitKind Kind);

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
/// so concurrent kernel workers never contend and repeated kernel calls
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
/// the GEMM needed anyway). The work is distributed per
/// chooseConvSplit() — or per \p ForcedSplit when non-null (tests,
/// bench) — and the output is bit-identical for every split and worker
/// count, and bit-identical to a blocked GEMM over a materialized
/// im2col matrix.
///
/// \p WeightsPre, when non-null, supplies the weight matrix pre-packed
/// by packGemmA (eval Conv2D per call, plan freeze); otherwise panels are
/// packed per task from \p Weights (row-major OutChannels x ColRows,
/// i.e. OIHW flattened). \p FuseReLU clamps each task's output region
/// to [0, inf) as an epilogue.
void convForwardFused(const float *Images, int Batch, int Height,
                      int Width, const ConvGeometry &G,
                      const PackedPanels *WeightsPre, const float *Weights,
                      const float *Bias, bool FuseReLU, float *Out,
                      const ConvSplit *ForcedSplit = nullptr);

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
