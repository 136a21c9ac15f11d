//===- plan/Plan.cpp - Plan compilation ------------------------------------===//
//
// Freeze-time compilation of a Graph subgraph into an ExecPlan: cone
// extraction, shape inference, BatchNorm folding, ReLU fusion, arena
// layout with lifetime-based reuse, and GEMM panel pre-packing.
//
//===----------------------------------------------------------------------===//

#include "src/plan/Plan.h"

#include "src/support/Json.h"
#include "src/tensor/Ops.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

using namespace wootz;

namespace {

const char *opName(PlanStep::Op Kind) {
  switch (Kind) {
  case PlanStep::Op::Conv:
    return "conv";
  case PlanStep::Op::ScaleShift:
    return "scaleshift";
  case PlanStep::Op::ReLU:
    return "relu";
  case PlanStep::Op::MaxPool:
    return "maxpool";
  case PlanStep::Op::AvgPool:
    return "avgpool";
  case PlanStep::Op::GlobalAvgPool:
    return "globalavgpool";
  case PlanStep::Op::Dense:
    return "dense";
  case PlanStep::Op::Concat:
    return "concat";
  case PlanStep::Op::Add:
    return "add";
  }
  return "?";
}

/// Per-sample extents of a buffer, as a batch-1 NCHW shape.
Shape sampleShape(const PlanBuffer &B) {
  return Shape{1, B.Channels, B.Height, B.Width};
}

/// True when a fused ReLU epilogue is implemented for \p Kind.
bool supportsReluEpilogue(PlanStep::Op Kind) {
  switch (Kind) {
  case PlanStep::Op::Conv:
  case PlanStep::Op::ScaleShift:
  case PlanStep::Op::Dense:
  case PlanStep::Op::Add:
    return true;
  default:
    return false;
  }
}

/// Folds eval-mode BatchNorm statistics into per-channel scale/shift:
/// y = x * Scale[c] + Shift[c] where Scale = gamma / sqrt(var + eps)
/// and Shift = beta - mean * Scale. Uses the same float inverse-sqrt
/// the interpreter's eval path computes.
void batchNormScaleShift(const BatchNorm2D &Bn, Tensor &Scale,
                         Tensor &Shift) {
  const int C = Bn.channels();
  Scale = Tensor(Shape{C});
  Shift = Tensor(Shape{C});
  for (int I = 0; I < C; ++I) {
    const float InvStd = 1.0f / std::sqrt(Bn.runningVar().Value[I] +
                                          Bn.epsilon());
    Scale[I] = Bn.gamma().Value[I] * InvStd;
    Shift[I] = Bn.beta().Value[I] - Bn.runningMean().Value[I] * Scale[I];
  }
}

} // namespace

Result<ExecPlan> ExecPlan::compile(const Graph &G,
                                   const std::string &InputNode,
                                   const std::string &OutputNode,
                                   int Channels, int Height, int Width,
                                   const PlanOptions &Options) {
  if (!G.hasNode(InputNode))
    return Error::failure("plan input node '" + InputNode +
                          "' does not exist");
  if (!G.hasNode(OutputNode))
    return Error::failure("plan output node '" + OutputNode +
                          "' does not exist");
  if (Channels <= 0 || Height <= 0 || Width <= 0)
    return Error::failure("plan input extents must be positive");

  // The cone: every node OutputNode transitively depends on. Nodes
  // outside it (other tuning blocks sharing the graph) never execute.
  std::set<std::string> Cone;
  std::vector<std::string> Work{OutputNode};
  while (!Work.empty()) {
    const std::string Node = Work.back();
    Work.pop_back();
    if (!Cone.insert(Node).second)
      continue;
    if (!G.findLayer(Node)) {
      if (Node != InputNode)
        return Error::failure(
            "plan output depends on input placeholder '" + Node +
            "', not the declared input '" + InputNode + "'");
      continue;
    }
    for (const std::string &In : G.nodeInputs(Node))
      Work.push_back(In);
  }
  if (!Cone.count(InputNode))
    return Error::failure("plan output '" + OutputNode +
                          "' does not depend on input '" + InputNode +
                          "'");

  // Topological order over the cone (Graph insertion order is one) and
  // the in-cone consumer lists that drive fold/fuse legality.
  std::vector<std::string> Order;
  for (const std::string &Name : G.nodeNames())
    if (Cone.count(Name))
      Order.push_back(Name);
  std::map<std::string, std::vector<std::string>> Consumers;
  for (const std::string &Name : Order)
    if (G.findLayer(Name))
      for (const std::string &In : G.nodeInputs(Name))
        Consumers[In].push_back(Name);

  auto soleConsumer = [&](const std::string &Node) -> const std::string * {
    auto It = Consumers.find(Node);
    if (It == Consumers.end() || It->second.size() != 1)
      return nullptr;
    // A node that is also the plan output stays externally visible even
    // with one in-cone consumer; its activation must survive as-is.
    if (Node == OutputNode)
      return nullptr;
    return &It->second[0];
  };

  // BatchNorm folding decisions: Bn -> producing Conv when the Conv
  // feeds nothing else (otherwise folding would corrupt the second
  // consumer's view of the Conv activation).
  std::map<std::string, std::string> FoldBnOf; // conv -> bn
  if (Options.FoldBatchNorm) {
    for (const std::string &Name : Order) {
      const Layer *L = G.findLayer(Name);
      if (!L || L->kind() != "batchnorm")
        continue;
      const std::vector<std::string> Ins = G.nodeInputs(Name);
      const Layer *Producer = G.findLayer(Ins[0]);
      if (!Producer || Producer->kind() != "conv")
        continue;
      const std::string *Sole = soleConsumer(Ins[0]);
      if (Sole && *Sole == Name)
        FoldBnOf[Ins[0]] = Name;
    }
  }

  ExecPlan Plan;
  Plan.Input = InputNode;
  Plan.Output = OutputNode;
  Plan.InChannels = Channels;
  Plan.InHeight = Height;
  Plan.InWidth = Width;
  Plan.Opts = Options;

  // Node -> buffer index; fused/folded/aliased nodes share their
  // producer's buffer.
  std::map<std::string, int> BufOf;
  Plan.Buffers.push_back(PlanBuffer{InputNode, Channels, Height, Width,
                                    static_cast<size_t>(Channels) * Height *
                                        Width,
                                    0, -1, -1});
  BufOf[InputNode] = 0;

  auto newBuffer = [&](const std::string &Node, const Shape &S) {
    PlanBuffer B;
    B.Node = Node;
    if (S.rank() == 4) {
      B.Channels = S[1];
      B.Height = S[2];
      B.Width = S[3];
    } else {
      assert(S.rank() == 2 && "plan buffers are NCHW or NC");
      B.Channels = S[1];
      B.Height = 1;
      B.Width = 1;
    }
    B.PerSampleElems = static_cast<size_t>(B.Channels) * B.Height * B.Width;
    B.DefStep = static_cast<int>(Plan.Steps.size());
    Plan.Buffers.push_back(B);
    return static_cast<int>(Plan.Buffers.size()) - 1;
  };

  // Fuses the single-consumer ReLU downstream of \p Tail (if legal)
  // into \p Step; returns the name of the node whose activation the
  // step finally carries.
  auto maybeFuseRelu = [&](PlanStep &Step,
                           const std::string &Tail) -> std::string {
    if (!Options.FuseReLU || !supportsReluEpilogue(Step.Kind))
      return Tail;
    const std::string *Next = soleConsumer(Tail);
    if (!Next)
      return Tail;
    const Layer *L = G.findLayer(*Next);
    if (!L || L->kind() != "relu")
      return Tail;
    Step.FusedReLU = true;
    return *Next;
  };

  for (const std::string &Name : Order) {
    const Layer *L = G.findLayer(Name);
    if (!L)
      continue; // The input placeholder already has buffer 0.
    if (BufOf.count(Name))
      continue; // Folded or fused into an earlier step.
    const std::string Kind = L->kind();

    const std::vector<std::string> InNames = G.nodeInputs(Name);
    std::vector<int> InBufs;
    std::vector<Shape> InShapes;
    for (const std::string &In : InNames) {
      const int Buf = BufOf.at(In);
      InBufs.push_back(Buf);
      InShapes.push_back(sampleShape(Plan.Buffers[Buf]));
    }

    PlanStep Step;
    Step.Inputs = InBufs;
    std::string Tail = Name;

    if (Kind == "conv") {
      const auto &Conv = static_cast<const Conv2D &>(*L);
      Step.Kind = PlanStep::Op::Conv;
      Step.Geometry = Conv.geometry();
      Step.Weight = Conv.weight().Value;
      Step.HasBias = Conv.bias() != nullptr;
      Step.Bias = Step.HasBias ? Conv.bias()->Value
                               : Tensor(Shape{Conv.geometry().OutChannels});
      auto It = FoldBnOf.find(Name);
      if (It != FoldBnOf.end()) {
        const auto &Bn =
            static_cast<const BatchNorm2D &>(*G.findLayer(It->second));
        Tensor Scale, Shift;
        batchNormScaleShift(Bn, Scale, Shift);
        // W'[o,...] = W * Scale[o]; b'[o] = b[o] * Scale[o] + Shift[o]
        // (with b = 0 for bias-free convolutions).
        const size_t PerFilter =
            Step.Weight.size() /
            static_cast<size_t>(Step.Geometry.OutChannels);
        for (int O = 0; O < Step.Geometry.OutChannels; ++O) {
          float *Filter = Step.Weight.data() + O * PerFilter;
          for (size_t I = 0; I < PerFilter; ++I)
            Filter[I] *= Scale[O];
          Step.Bias[O] = (Step.HasBias ? Step.Bias[O] : 0.0f) * Scale[O] +
                         Shift[O];
        }
        Step.HasBias = true;
        Step.FoldedBatchNorm = true;
        Tail = It->second;
      }
      Tail = maybeFuseRelu(Step, Tail);
      // Execution reads only the panels: the (folded) OIHW copy goes.
      const int ColRows = Step.Geometry.InChannels *
                          Step.Geometry.KernelSize *
                          Step.Geometry.KernelSize;
      Step.Packed = packGemmA(Step.Weight.data(),
                              static_cast<size_t>(ColRows), 1,
                              Step.Geometry.OutChannels, ColRows);
      Step.Weight = Tensor();
    } else if (Kind == "batchnorm") {
      const auto &Bn = static_cast<const BatchNorm2D &>(*L);
      Step.Kind = PlanStep::Op::ScaleShift;
      batchNormScaleShift(Bn, Step.Weight, Step.Bias);
      Tail = maybeFuseRelu(Step, Tail);
    } else if (Kind == "relu") {
      Step.Kind = PlanStep::Op::ReLU;
    } else if (Kind == "maxpool" || Kind == "avgpool") {
      const auto &Pool = static_cast<const Pool2D &>(*L);
      Step.Kind = Pool.mode() == Pool2D::Mode::Max ? PlanStep::Op::MaxPool
                                                   : PlanStep::Op::AvgPool;
      Step.PoolMode = Pool.mode();
      Step.Window = Pool.window();
      Step.Stride = Pool.stride();
      Step.Pad = Pool.pad();
    } else if (Kind == "globalavgpool") {
      Step.Kind = PlanStep::Op::GlobalAvgPool;
    } else if (Kind == "dense") {
      const auto &Fc = static_cast<const Dense &>(*L);
      Step.Kind = PlanStep::Op::Dense;
      Step.Weight = Fc.weight().Value;
      Step.Bias = Fc.bias().Value;
      Step.HasBias = true;
      Step.InFeatures = Fc.inFeatures();
      Step.OutFeatures = Fc.outFeatures();
      Tail = maybeFuseRelu(Step, Tail);
      // Dense weights are the transposed B operand: B^T(k, j) =
      // W[j * K + k], i.e. strides (1, K). Weight stays too: small
      // products take the unpacked reference path.
      Step.Packed = packGemmB(Step.Weight.data(), 1,
                              static_cast<size_t>(Step.InFeatures),
                              Step.InFeatures, Step.OutFeatures);
    } else if (Kind == "concat") {
      Step.Kind = PlanStep::Op::Concat;
    } else if (Kind == "add") {
      Step.Kind = PlanStep::Op::Add;
      Tail = maybeFuseRelu(Step, Tail);
    } else if (Kind == "dropout") {
      // Eval-mode dropout is the identity: alias, no step.
      BufOf[Name] = InBufs[0];
      continue;
    } else {
      return Error::failure("layer kind '" + Kind +
                            "' has no plan lowering (node '" + Name +
                            "')");
    }

    // The step's output shape is the shape of the node whose activation
    // the buffer finally carries; BN and ReLU preserve shapes, so the
    // head node's outputShape() is it.
    const Shape Out = L->outputShape(InShapes);
    Step.Node = Tail;
    Step.Output = newBuffer(Tail, Out);
    Plan.Steps.push_back(std::move(Step));

    // Map every node of the fused chain onto the one buffer.
    const int Buf = Plan.Steps.back().Output;
    BufOf[Name] = Buf;
    std::string Chain = Name;
    while (Chain != Tail) {
      Chain = Consumers.at(Chain)[0];
      BufOf[Chain] = Buf;
    }
  }

  Plan.OutputBuf = BufOf.at(OutputNode);

  // Live ranges: a buffer is born at its defining step and dies after
  // its last reader; the plan output survives to the end.
  for (size_t S = 0; S < Plan.Steps.size(); ++S)
    for (int In : Plan.Steps[S].Inputs)
      Plan.Buffers[In].LastUse =
          std::max(Plan.Buffers[In].LastUse, static_cast<int>(S));
  Plan.Buffers[Plan.OutputBuf].LastUse =
      static_cast<int>(Plan.Steps.size());

  // Arena layout: deterministic first-fit in buffer order. A buffer may
  // take any offset whose extent avoids every already-placed buffer
  // with an overlapping live range.
  for (size_t I = 0; I < Plan.Buffers.size(); ++I) {
    PlanBuffer &B = Plan.Buffers[I];
    if (B.LastUse < B.DefStep) {
      // Dead store (possible only for graphs with unused interior
      // outputs, which the cone excludes) — still give it room.
      B.LastUse = B.DefStep;
    }
    std::vector<std::pair<size_t, size_t>> Taken; // offset, end
    for (size_t J = 0; J < I; ++J) {
      const PlanBuffer &Other = Plan.Buffers[J];
      const bool Overlaps =
          B.DefStep <= Other.LastUse && Other.DefStep <= B.LastUse;
      if (Overlaps)
        Taken.emplace_back(Other.ArenaOffset,
                           Other.ArenaOffset + Other.PerSampleElems);
    }
    std::sort(Taken.begin(), Taken.end());
    size_t Offset = 0;
    for (const auto &[Begin, End] : Taken) {
      if (Offset + B.PerSampleElems <= Begin)
        break;
      Offset = std::max(Offset, End);
    }
    B.ArenaOffset = Offset;
    Plan.ArenaPerSample =
        std::max(Plan.ArenaPerSample, Offset + B.PerSampleElems);
  }

  return Plan;
}

std::string ExecPlan::describeJson() const {
  std::string Steps;
  for (size_t S = 0; S < this->Steps.size(); ++S) {
    const PlanStep &Step = this->Steps[S];
    std::string Inputs;
    for (int In : Step.Inputs)
      Inputs += (Inputs.empty() ? "" : ", ") + std::to_string(In);
    JsonObject Row;
    Row.field("op", opName(Step.Kind))
        .field("node", Step.Node)
        .fieldRaw("inputs", "[" + Inputs + "]")
        .field("output", Step.Output)
        .field("foldedBatchNorm", Step.FoldedBatchNorm)
        .field("fusedReLU", Step.FusedReLU)
        .field("prePacked", !Step.Packed.empty());
    Steps += (S ? ",\n    " : "    ") + Row.str();
  }
  std::string Bufs;
  for (size_t I = 0; I < Buffers.size(); ++I) {
    const PlanBuffer &B = Buffers[I];
    JsonObject Row;
    Row.field("node", B.Node)
        .field("channels", B.Channels)
        .field("height", B.Height)
        .field("width", B.Width)
        .field("perSampleElems", B.PerSampleElems)
        .field("arenaOffset", B.ArenaOffset)
        .field("defStep", B.DefStep)
        .field("lastUse", B.LastUse);
    Bufs += (I ? ",\n    " : "    ") + Row.str();
  }
  JsonObject Meta;
  Meta.field("input", Input)
      .field("output", Output)
      .field("channels", InChannels)
      .field("height", InHeight)
      .field("width", InWidth)
      .field("arenaPerSample", ArenaPerSample)
      .field("outputBuffer", OutputBuf)
      .field("foldBatchNorm", Opts.FoldBatchNorm)
      .field("fuseReLU", Opts.FuseReLU);
  std::string Out = Meta.str();
  Out.pop_back(); // Reopen the object to append the arrays.
  Out += ",\n  \"steps\": [\n" + Steps + "\n  ],\n  \"buffers\": [\n" +
         Bufs + "\n  ]\n}";
  return Out;
}
