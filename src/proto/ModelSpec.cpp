//===- proto/ModelSpec.cpp -------------------------------------------------===//

#include "src/proto/ModelSpec.h"

#include "src/support/StringUtils.h"

#include <map>
#include <set>

using namespace wootz;

const char *wootz::layerKindName(LayerKind Kind) {
  switch (Kind) {
  case LayerKind::Convolution:
    return "Convolution";
  case LayerKind::BatchNorm:
    return "BatchNorm";
  case LayerKind::ReLU:
    return "ReLU";
  case LayerKind::Pooling:
    return "Pooling";
  case LayerKind::InnerProduct:
    return "InnerProduct";
  case LayerKind::Concat:
    return "Concat";
  case LayerKind::Eltwise:
    return "Eltwise";
  }
  return "Unknown";
}

int ModelSpec::layerIndex(const std::string &Name) const {
  for (size_t I = 0; I < Layers.size(); ++I)
    if (Layers[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

//===----------------------------------------------------------------------===//
// Structural analysis
//===----------------------------------------------------------------------===//

/// True for layers that preserve the channel count of their sole input.
static bool preservesChannels(LayerKind Kind) {
  return Kind == LayerKind::BatchNorm || Kind == LayerKind::ReLU ||
         Kind == LayerKind::Pooling;
}

Error ModelSpec::analyze() {
  // Pass 1: name uniqueness and defined-before-use bottoms.
  std::set<std::string> Defined{InputName};
  for (const LayerSpec &L : Layers) {
    if (L.Name.empty())
      return Error::failure("model '" + Name + "' has an unnamed layer");
    if (Defined.count(L.Name))
      return Error::failure("duplicate layer name '" + L.Name + "'");
    if (L.Bottoms.empty())
      return Error::failure("layer '" + L.Name + "' has no bottom");
    for (const std::string &Bottom : L.Bottoms)
      if (!Defined.count(Bottom))
        return Error::failure("layer '" + L.Name + "' uses undefined bottom '" +
                              Bottom + "'");
    Defined.insert(L.Name);
  }

  // Pass 2: contiguous module runs.
  Modules.clear();
  LayerModule.assign(Layers.size(), -1);
  std::set<std::string> ClosedModules;
  for (size_t I = 0; I < Layers.size(); ++I) {
    const std::string &Label = Layers[I].Module;
    if (Label.empty())
      continue;
    if (!Modules.empty() && Modules.back().Name == Label &&
        Modules.back().LastLayer == static_cast<int>(I) - 1) {
      Modules.back().LastLayer = static_cast<int>(I);
    } else {
      if (ClosedModules.count(Label))
        return Error::failure("module '" + Label +
                              "' is not a contiguous layer run");
      if (!Modules.empty())
        ClosedModules.insert(Modules.back().Name);
      Modules.push_back(
          {Label, static_cast<int>(I), static_cast<int>(I), "", ""});
    }
    LayerModule[I] = static_cast<int>(Modules.size()) - 1;
  }

  // Pass 3: each module consumes exactly one external producer and is
  // consumed through exactly one of its layers (the block boundaries).
  for (ModuleSpec &M : Modules) {
    std::set<std::string> External;
    for (int I = M.FirstLayer; I <= M.LastLayer; ++I) {
      for (const std::string &Bottom : Layers[I].Bottoms) {
        const int BottomIndex = layerIndex(Bottom);
        const bool Internal = BottomIndex >= M.FirstLayer &&
                              BottomIndex <= M.LastLayer;
        if (!Internal)
          External.insert(Bottom);
      }
    }
    if (External.size() != 1)
      return Error::failure("module '" + M.Name + "' must have exactly one "
                            "external input, found " +
                            std::to_string(External.size()));
    M.ExternalInput = *External.begin();

    std::set<std::string> Outputs;
    for (size_t I = 0; I < Layers.size(); ++I) {
      const bool Internal = static_cast<int>(I) >= M.FirstLayer &&
                            static_cast<int>(I) <= M.LastLayer;
      if (Internal)
        continue;
      for (const std::string &Bottom : Layers[I].Bottoms) {
        const int BottomIndex = layerIndex(Bottom);
        if (BottomIndex >= M.FirstLayer && BottomIndex <= M.LastLayer)
          Outputs.insert(Bottom);
      }
    }
    if (Outputs.size() != 1)
      return Error::failure("module '" + M.Name + "' must be consumed "
                            "through exactly one layer, found " +
                            std::to_string(Outputs.size()));
    M.OutputLayer = *Outputs.begin();
  }

  // Pass 4: prunability. Build the consumer lists once.
  std::map<std::string, std::vector<int>> Consumers;
  for (size_t I = 0; I < Layers.size(); ++I)
    for (const std::string &Bottom : Layers[I].Bottoms)
      Consumers[Bottom].push_back(static_cast<int>(I));

  Prunable.assign(Layers.size(), false);
  for (size_t I = 0; I < Layers.size(); ++I) {
    if (Layers[I].Kind != LayerKind::Convolution || LayerModule[I] < 0)
      continue;
    const int Module = LayerModule[I];
    // Walk forward through shape-preserving layers; pruning this conv is
    // safe iff every path ends at another convolution of the same module.
    bool Safe = true;
    std::vector<int> Worklist{static_cast<int>(I)};
    std::set<int> Visited;
    while (Safe && !Worklist.empty()) {
      const int Current = Worklist.back();
      Worklist.pop_back();
      if (!Visited.insert(Current).second)
        continue;
      auto It = Consumers.find(Layers[Current].Name);
      if (It == Consumers.end() || It->second.empty()) {
        Safe = false; // Feeds the network output.
        break;
      }
      for (int Consumer : It->second) {
        if (LayerModule[Consumer] != Module) {
          Safe = false;
          break;
        }
        if (Layers[Consumer].Kind == LayerKind::Convolution)
          continue; // The consuming conv absorbs the channel change.
        if (preservesChannels(Layers[Consumer].Kind)) {
          Worklist.push_back(Consumer);
          continue;
        }
        Safe = false; // Concat/Eltwise/InnerProduct pin the channel count.
        break;
      }
    }
    Prunable[I] = Safe;
  }
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Prototxt binding
//===----------------------------------------------------------------------===//

static Result<LayerKind> layerKindFromName(const std::string &TypeName) {
  if (TypeName == "Convolution")
    return LayerKind::Convolution;
  if (TypeName == "BatchNorm")
    return LayerKind::BatchNorm;
  if (TypeName == "ReLU")
    return LayerKind::ReLU;
  if (TypeName == "Pooling")
    return LayerKind::Pooling;
  if (TypeName == "InnerProduct")
    return LayerKind::InnerProduct;
  if (TypeName == "Concat")
    return LayerKind::Concat;
  if (TypeName == "Eltwise")
    return LayerKind::Eltwise;
  return Error::failure("unsupported layer type '" + TypeName + "'");
}

/// Extent cap for parsed layer dimensions. Prototxt arrives over HTTP, so
/// a bound here keeps a hostile `num_output: 999999999` from turning into
/// a multi-gigabyte allocation downstream.
static constexpr long long MaxLayerExtent = 1 << 16;

/// The sole nested message under \p FieldName; errors (rather than
/// asserting) when the field is repeated or scalar-valued.
static Result<const PrototxtMessage *>
messageField(const PrototxtMessage &Msg, const std::string &LayerName,
             const std::string &FieldName) {
  const std::vector<PrototxtValue> &Values = Msg.values(FieldName);
  if (Values.size() != 1)
    return Error::failure("layer '" + LayerName + "': field '" + FieldName +
                          "' occurs " + std::to_string(Values.size()) +
                          " times, expected a single message");
  if (Values[0].isScalar())
    return Error::failure("layer '" + LayerName + "': field '" + FieldName +
                          "' is a scalar, expected a message");
  return &Values[0].message();
}

/// intOr() wrapper that prefixes errors with the layer name and bounds the
/// result to [Min, MaxLayerExtent].
static Result<int> intField(const PrototxtMessage &Msg,
                            const std::string &LayerName,
                            const std::string &FieldName, long long Default,
                            long long Min) {
  Result<long long> Value = Msg.intOr(FieldName, Default);
  if (!Value)
    return Error::failure("layer '" + LayerName + "': " + Value.message());
  if (*Value < Min || *Value > MaxLayerExtent)
    return Error::failure("layer '" + LayerName + "': field '" + FieldName +
                          "' value " + std::to_string(*Value) +
                          " is out of range [" + std::to_string(Min) + ", " +
                          std::to_string(MaxLayerExtent) + "]");
  return static_cast<int>(*Value);
}

static Result<LayerSpec> layerFromMessage(const PrototxtMessage &Msg) {
  LayerSpec L;
  Result<std::string> Name = Msg.scalarOr("name", "");
  if (!Name)
    return Error::failure("layer: " + Name.message());
  L.Name = Name.take();

  // Prefixes accessor errors with the layer name for actionable messages.
  auto scalar = [&](const std::string &FieldName,
                    const std::string &Default) -> Result<std::string> {
    Result<std::string> Value = Msg.scalarOr(FieldName, Default);
    if (!Value)
      return Error::failure("layer '" + L.Name + "': " + Value.message());
    return Value;
  };

  Result<std::string> TypeName = scalar("type", "");
  if (!TypeName)
    return TypeName.takeError();
  Result<LayerKind> Kind = layerKindFromName(*TypeName);
  if (!Kind)
    return Error::failure("layer '" + L.Name + "': " + Kind.message());
  L.Kind = *Kind;
  for (const PrototxtValue &Bottom : Msg.values("bottom")) {
    if (!Bottom.isScalar())
      return Error::failure("layer '" + L.Name +
                            "': 'bottom' must be a scalar");
    L.Bottoms.push_back(Bottom.text());
  }
  // We require in-place-free graphs where each layer's top is its name;
  // this keeps the data-flow analysis trivial, matching the structure the
  // Wootz compiler emits.
  Result<std::string> Top = scalar("top", L.Name);
  if (!Top)
    return Top.takeError();
  if (*Top != L.Name)
    return Error::failure("layer '" + L.Name +
                          "': top must equal the layer name");
  Result<std::string> Module = scalar("module", "");
  if (!Module)
    return Module.takeError();
  L.Module = Module.take();

  if (L.Kind == LayerKind::Convolution) {
    if (!Msg.has("convolution_param"))
      return Error::failure("layer '" + L.Name +
                            "': missing convolution_param");
    Result<const PrototxtMessage *> Param =
        messageField(Msg, L.Name, "convolution_param");
    if (!Param)
      return Param.takeError();
    const PrototxtMessage &P = **Param;
    Result<int> NumOutput = intField(P, L.Name, "num_output", 0, 1);
    Result<int> KernelSize = intField(P, L.Name, "kernel_size", 1, 1);
    Result<int> Stride = intField(P, L.Name, "stride", 1, 1);
    Result<int> Pad = intField(P, L.Name, "pad", 0, 0);
    if (!NumOutput || !KernelSize || !Stride || !Pad)
      return !NumOutput   ? NumOutput.takeError()
             : !KernelSize ? KernelSize.takeError()
             : !Stride     ? Stride.takeError()
                           : Pad.takeError();
    L.NumOutput = *NumOutput;
    L.KernelSize = *KernelSize;
    L.Stride = *Stride;
    L.Pad = *Pad;
    Result<bool> BiasTerm = P.boolOr("bias_term", true);
    if (!BiasTerm)
      return Error::failure("layer '" + L.Name + "': " +
                            BiasTerm.message());
    L.BiasTerm = *BiasTerm;
  } else if (L.Kind == LayerKind::InnerProduct) {
    if (!Msg.has("inner_product_param"))
      return Error::failure("layer '" + L.Name +
                            "': missing inner_product_param");
    Result<const PrototxtMessage *> Param =
        messageField(Msg, L.Name, "inner_product_param");
    if (!Param)
      return Param.takeError();
    Result<int> NumOutput = intField(**Param, L.Name, "num_output", 0, 1);
    if (!NumOutput)
      return NumOutput.takeError();
    L.NumOutput = *NumOutput;
  } else if (L.Kind == LayerKind::Pooling) {
    if (Msg.has("pooling_param")) {
      Result<const PrototxtMessage *> Param =
          messageField(Msg, L.Name, "pooling_param");
      if (!Param)
        return Param.takeError();
      const PrototxtMessage &P = **Param;
      Result<std::string> Pool = P.scalarOr("pool", "MAX");
      if (!Pool)
        return Error::failure("layer '" + L.Name + "': " + Pool.message());
      if (*Pool != "MAX" && *Pool != "AVE")
        return Error::failure("layer '" + L.Name +
                              "': unsupported pool method '" + *Pool + "'");
      L.PoolMax = *Pool == "MAX";
      Result<int> KernelSize = intField(P, L.Name, "kernel_size", 2, 1);
      if (!KernelSize)
        return KernelSize.takeError();
      L.KernelSize = *KernelSize;
      Result<int> Stride = intField(P, L.Name, "stride", L.KernelSize, 1);
      Result<int> Pad = intField(P, L.Name, "pad", 0, 0);
      if (!Stride || !Pad)
        return !Stride ? Stride.takeError() : Pad.takeError();
      L.Stride = *Stride;
      L.Pad = *Pad;
      Result<bool> GlobalPooling = P.boolOr("global_pooling", false);
      if (!GlobalPooling)
        return Error::failure("layer '" + L.Name + "': " +
                              GlobalPooling.message());
      L.GlobalPooling = *GlobalPooling;
    }
  } else if (L.Kind == LayerKind::Eltwise) {
    if (Msg.has("eltwise_param")) {
      Result<const PrototxtMessage *> Param =
          messageField(Msg, L.Name, "eltwise_param");
      if (!Param)
        return Param.takeError();
      Result<std::string> Operation = (*Param)->scalarOr("operation", "SUM");
      if (!Operation)
        return Error::failure("layer '" + L.Name + "': " +
                              Operation.message());
      if (*Operation != "SUM")
        return Error::failure("layer '" + L.Name +
                              "': only SUM eltwise is supported");
    }
  }
  return L;
}

Result<ModelSpec> wootz::parseModelSpec(const std::string &PrototxtSource) {
  Result<PrototxtMessage> Parsed = parsePrototxt(PrototxtSource);
  if (!Parsed)
    return Parsed.takeError();
  const PrototxtMessage &Top = *Parsed;

  ModelSpec Spec;
  Result<std::string> Name = Top.scalarOr("name", "model");
  if (!Name)
    return Name.takeError();
  Spec.Name = Name.take();
  if (Top.has("input")) {
    Result<std::string> Input = Top.scalarOr("input", "data");
    if (!Input)
      return Input.takeError();
    Spec.InputName = Input.take();
  }
  const std::vector<PrototxtValue> &Dims = Top.values("input_dim");
  if (Dims.size() != 4)
    return Error::failure("expected 4 input_dim entries (N C H W), found " +
                          std::to_string(Dims.size()));
  // input_dim order is N, C, H, W; the batch extent is ignored (batches
  // are runtime-sized).
  auto dimAt = [&](int Index) -> Result<long long> {
    if (!Dims[Index].isScalar())
      return Error::failure("input_dim must be a scalar");
    Result<long long> Value = parseInteger(Dims[Index].text());
    if (!Value)
      return Error::failure("invalid input_dim '" + Dims[Index].text() +
                            "': " + Value.message());
    if (Index > 0 && (*Value < 1 || *Value > MaxLayerExtent))
      return Error::failure("input_dim value " + std::to_string(*Value) +
                            " is out of range [1, " +
                            std::to_string(MaxLayerExtent) + "]");
    return Value;
  };
  Result<long long> C = dimAt(1);
  Result<long long> H = dimAt(2);
  Result<long long> W = dimAt(3);
  if (!C || !H || !W)
    return !C ? C.takeError() : !H ? H.takeError() : W.takeError();
  Spec.InputChannels = static_cast<int>(*C);
  Spec.InputHeight = static_cast<int>(*H);
  Spec.InputWidth = static_cast<int>(*W);

  for (const PrototxtValue &LayerValue : Top.values("layer")) {
    if (LayerValue.isScalar())
      return Error::failure("'layer' must be a message");
    Result<LayerSpec> L = layerFromMessage(LayerValue.message());
    if (!L)
      return L.takeError();
    Spec.Layers.push_back(L.take());
  }
  if (Spec.Layers.empty())
    return Error::failure("model '" + Spec.Name + "' has no layers");
  if (Error E = Spec.analyze())
    return E;
  return Spec;
}

std::string wootz::printModelSpec(const ModelSpec &Spec) {
  std::string Out;
  Out += "name: \"" + prototxtEscape(Spec.Name) + "\"\n";
  Out += "input: \"" + prototxtEscape(Spec.InputName) + "\"\n";
  Out += "input_dim: 1\n";
  Out += "input_dim: " + std::to_string(Spec.InputChannels) + "\n";
  Out += "input_dim: " + std::to_string(Spec.InputHeight) + "\n";
  Out += "input_dim: " + std::to_string(Spec.InputWidth) + "\n";
  for (const LayerSpec &L : Spec.Layers) {
    Out += "layer {\n";
    Out += "  name: \"" + prototxtEscape(L.Name) + "\"\n";
    Out += "  type: \"" + std::string(layerKindName(L.Kind)) + "\"\n";
    for (const std::string &Bottom : L.Bottoms)
      Out += "  bottom: \"" + prototxtEscape(Bottom) + "\"\n";
    Out += "  top: \"" + prototxtEscape(L.Name) + "\"\n";
    if (!L.Module.empty())
      Out += "  module: \"" + prototxtEscape(L.Module) + "\"\n";
    if (L.Kind == LayerKind::Convolution) {
      Out += "  convolution_param {\n";
      Out += "    num_output: " + std::to_string(L.NumOutput) + "\n";
      Out += "    kernel_size: " + std::to_string(L.KernelSize) + "\n";
      Out += "    stride: " + std::to_string(L.Stride) + "\n";
      Out += "    pad: " + std::to_string(L.Pad) + "\n";
      Out += std::string("    bias_term: ") +
             (L.BiasTerm ? "true" : "false") + "\n";
      Out += "  }\n";
    } else if (L.Kind == LayerKind::InnerProduct) {
      Out += "  inner_product_param {\n";
      Out += "    num_output: " + std::to_string(L.NumOutput) + "\n";
      Out += "  }\n";
    } else if (L.Kind == LayerKind::Pooling) {
      Out += "  pooling_param {\n";
      Out += std::string("    pool: ") + (L.PoolMax ? "MAX" : "AVE") + "\n";
      if (L.GlobalPooling) {
        Out += "    global_pooling: true\n";
      } else {
        Out += "    kernel_size: " + std::to_string(L.KernelSize) + "\n";
        Out += "    stride: " + std::to_string(L.Stride) + "\n";
        Out += "    pad: " + std::to_string(L.Pad) + "\n";
      }
      Out += "  }\n";
    } else if (L.Kind == LayerKind::Eltwise) {
      Out += "  eltwise_param {\n    operation: SUM\n  }\n";
    }
    Out += "}\n";
  }
  return Out;
}
