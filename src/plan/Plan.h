//===- plan/Plan.h - Static inference plans --------------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shape-specialized static inference plans for frozen pruned graphs.
///
/// The pipeline emits one winning pruned network that then serves many
/// predictions, yet the generic Graph interpreter re-derives shapes,
/// re-allocates activations, and re-packs GEMM panels on every forward.
/// ExecPlan::compile() pays all of that once, at freeze time:
///
///  - the topological node walk collapses to a flat step list with
///    pre-resolved buffer indices (no name lookups, no shape inference);
///  - every activation lives in one arena at a pre-computed offset, with
///    lifetime-based reuse so disjoint activations share storage;
///  - eval-mode BatchNorm folds into the preceding convolution's weights
///    and bias (or becomes a per-channel scale/shift when standalone);
///  - single-consumer ReLUs fuse into their producer step's epilogue;
///  - Conv/Dense weight matrices are pre-packed into the blocked GEMM
///    engine's panel layout (tensor/Kernels.h), once per model rather
///    than once per request.
///
/// Freeze contract: compile() copies every parameter it needs (folded or
/// not) into plan-owned storage, so the plan stays valid if the source
/// Graph is mutated or destroyed afterwards; conversely, later training
/// of the graph does NOT update an already-compiled plan — recompile
/// after the weights settle. A plan is specialized to the per-sample
/// input extents given at compile time; the batch dimension stays free
/// (arena offsets scale with the batch).
///
/// Execution state lives in PlanContext, the plan analog of ExecContext:
/// one context per thread over a shared immutable plan, so N batcher
/// workers run one plan re-entrantly. Plan execution in eval mode is
/// bit-identical across context counts and kernel worker counts (the
/// determinism guarantee of tensor/Kernels.h carries over); relative to
/// the interpreter, logits match bit-for-bit except where BatchNorm
/// folding legitimately reorders float operations.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_PLAN_PLAN_H
#define WOOTZ_PLAN_PLAN_H

#include "src/nn/Graph.h"
#include "src/nn/Layers.h"
#include "src/support/Error.h"
#include "src/tensor/Kernels.h"

#include <string>
#include <vector>

namespace wootz {

/// Freeze-time specialization knobs. The defaults give the fastest
/// plans; the switches exist for A/B measurement and for golden tests
/// that pin each transformation down in isolation.
struct PlanOptions {
  /// Fold eval-mode BatchNorm into the preceding convolution when it is
  /// that convolution's only consumer; standalone BatchNorm becomes a
  /// precomputed per-channel scale/shift step either way.
  bool FoldBatchNorm = true;
  /// Fuse a single-consumer ReLU into its producer step's epilogue.
  bool FuseReLU = true;
};

/// One executable step of a plan. Inputs/Output index ExecPlan's buffer
/// table; parameter tensors are plan-owned copies.
struct PlanStep {
  enum class Op {
    Conv,          ///< im2col + GEMM; optional folded BN, fused ReLU.
    ScaleShift,    ///< Standalone eval BatchNorm: x * Scale + Shift.
    ReLU,          ///< Unfused rectifier.
    MaxPool,
    AvgPool,
    GlobalAvgPool,
    Dense,
    Concat,
    Add,
  };

  Op Kind;
  /// Name of the graph node whose activation this step's output buffer
  /// carries (the last node of a fused chain).
  std::string Node;
  std::vector<int> Inputs;
  int Output = -1;
  bool FoldedBatchNorm = false;
  bool FusedReLU = false;

  // Operator parameters; which fields are live depends on Kind.
  ConvGeometry Geometry;              ///< Conv.
  Tensor Weight;                      ///< Dense [Out, In] / ScaleShift
                                      ///< per-channel scale; empty for
                                      ///< Conv, which keeps only Packed.
  Tensor Bias;                        ///< Conv/Dense bias [Out] /
                                      ///< ScaleShift per-channel shift.
  bool HasBias = false;               ///< Conv: bias term present.
  PackedPanels Packed;                ///< Conv A / Dense B GEMM panels,
                                      ///< packed at freeze time.
  Pool2D::Mode PoolMode = Pool2D::Mode::Max;
  int Window = 0, Stride = 0, Pad = 0; ///< MaxPool/AvgPool.
  int InFeatures = 0, OutFeatures = 0; ///< Dense.
};

/// One logical activation buffer: per-sample extents plus its arena
/// placement. Offsets and sizes are in per-sample float counts; the
/// byte placement for a batch of N scales every figure by N.
struct PlanBuffer {
  /// Producing node (for the input buffer: the input placeholder).
  std::string Node;
  int Channels = 0, Height = 0, Width = 0;
  size_t PerSampleElems = 0;
  size_t ArenaOffset = 0;
  /// Step index that writes the buffer (-1: the plan input) and the last
  /// step index that reads it (the plan output lives to the end).
  int DefStep = -1;
  int LastUse = -1;
};

/// A compiled, immutable, self-contained inference program for one
/// (graph, input node, output node, input shape) combination. Compile
/// once, then execute from any number of PlanContexts concurrently.
class ExecPlan {
public:
  /// An empty plan (Result<ExecPlan> requires default construction);
  /// only compile() produces runnable plans.
  ExecPlan() = default;

  /// Compiles the subgraph of \p G that \p OutputNode depends on,
  /// specialized to per-sample input extents \p Channels x \p Height x
  /// \p Width on \p InputNode. Eval-mode Dropout compiles to a
  /// zero-cost buffer alias. Fails cleanly on unknown nodes, on a
  /// dependence on any input placeholder other than \p InputNode, and
  /// on layer kinds with no eval-mode plan lowering.
  static Result<ExecPlan> compile(const Graph &G,
                                  const std::string &InputNode,
                                  const std::string &OutputNode,
                                  int Channels, int Height, int Width,
                                  const PlanOptions &Options = {});

  const std::vector<PlanStep> &steps() const { return Steps; }
  const std::vector<PlanBuffer> &buffers() const { return Buffers; }

  /// Arena size for a batch of one, in floats; a batch of N needs
  /// N times this.
  size_t arenaPerSample() const { return ArenaPerSample; }

  const std::string &inputNode() const { return Input; }
  const std::string &outputNode() const { return Output; }
  int inputChannels() const { return InChannels; }
  int inputHeight() const { return InHeight; }
  int inputWidth() const { return InWidth; }
  /// Index of the buffer holding the plan output.
  int outputBuffer() const { return OutputBuf; }
  const PlanOptions &options() const { return Opts; }

  /// The plan as JSON (steps, fusion decisions, buffer offsets, arena
  /// size): the artifact JobManager freezes next to result.json, and a
  /// human-readable record of what the compiler decided.
  std::string describeJson() const;

private:
  std::vector<PlanStep> Steps;
  std::vector<PlanBuffer> Buffers;
  size_t ArenaPerSample = 0;
  std::string Input;
  std::string Output;
  int InChannels = 0, InHeight = 0, InWidth = 0;
  int OutputBuf = -1;
  PlanOptions Opts;
};

/// Per-caller execution state for one ExecPlan: the activation arena and
/// the output tensor. Create one per thread (or per in-flight request)
/// over a shared plan; a context reuses its arena across calls and
/// reallocates only when the batch grows. Do not use one PlanContext
/// from two threads at once.
class PlanContext {
public:
  PlanContext() = default;
  explicit PlanContext(const ExecPlan &P) : Bound(&P) {}

  /// Attaches this context to \p P (resets nothing but the binding; the
  /// arena is re-sized on the next run).
  void bind(const ExecPlan &P) { Bound = &P; }

  const ExecPlan *plan() const { return Bound; }

  /// Runs the plan on \p Input (shape [N, C, H, W] matching the plan's
  /// input extents) and returns the output activation ([N, classes] for
  /// a logits output). The reference stays valid until the next run().
  const Tensor &run(const Tensor &Input);

private:
  const ExecPlan *Bound = nullptr;
  AlignedBuffer Arena;
  Tensor OutputTensor;
};

} // namespace wootz

#endif // WOOTZ_PLAN_PLAN_H
