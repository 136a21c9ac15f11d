//===- tests/KernelFusedTest.cpp - Fused convolution tests ----------------===//
//
// Pins the fused convolution's contract on the kernel layer:
// convForwardFused() is bit-identical to a blocked GEMM over a
// materialized im2col matrix, for every split kind and every worker
// count, with or without pre-packed weight panels — the fused path
// changes where panels come from, never which floats are summed in
// which order.
//
// Plus the WOOTZ_KERNEL_WORKERS parser's rejection of garbage values.
//
//===----------------------------------------------------------------------===//

#include "src/compiler/Multiplexing.h"
#include "src/compiler/NetsFactory.h"
#include "src/models/MiniModels.h"
#include "src/nn/Graph.h"
#include "src/nn/Layers.h"
#include "src/tensor/Ops.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace wootz;

namespace {

//===----------------------------------------------------------------------===//
// Fused im2col+pack vs. materialized im2col
//===----------------------------------------------------------------------===//

struct ConvProblem {
  ConvGeometry G;
  int Batch = 0;
  int Height = 0;
  int Width = 0;
};

/// The geometries under test: stride-1 padded (the memcpy fast path),
/// stride-2, a 5x5 kernel with wide padding, and a pointwise 1x1.
std::vector<ConvProblem> convProblems() {
  return {
      {{3, 8, 3, 1, 1}, 3, 8, 8},
      {{4, 6, 3, 2, 1}, 2, 9, 9},
      {{2, 5, 5, 1, 2}, 2, 7, 7},
      {{3, 4, 1, 1, 0}, 4, 6, 6},
  };
}

std::vector<float> fillDeterministic(size_t Count, float Scale) {
  std::vector<float> Out(Count);
  for (size_t I = 0; I < Count; ++I)
    Out[I] = Scale * static_cast<float>(static_cast<int>(I % 23) - 11);
  return Out;
}

/// The oracle: materialize each sample's im2col matrix and run the same
/// blocked GEMM engine over it, bias fused, exactly as the eval path did
/// before fusion.
std::vector<float> convViaMaterializedIm2col(const ConvProblem &P,
                                             const std::vector<float> &Images,
                                             const std::vector<float> &Weights,
                                             const std::vector<float> &Bias) {
  const int OutH = P.G.outExtent(P.Height);
  const int OutW = P.G.outExtent(P.Width);
  const int M = P.G.OutChannels;
  const int ColRows = P.G.InChannels * P.G.KernelSize * P.G.KernelSize;
  const int ColCols = OutH * OutW;
  const size_t InPlane =
      static_cast<size_t>(P.G.InChannels) * P.Height * P.Width;
  const size_t OutPlane = static_cast<size_t>(M) * ColCols;
  std::vector<float> Columns(static_cast<size_t>(ColRows) * ColCols);
  std::vector<float> Out(static_cast<size_t>(P.Batch) * OutPlane);
  for (int S = 0; S < P.Batch; ++S) {
    im2col(Images.data() + S * InPlane, P.G.InChannels, P.Height, P.Width,
           P.G, Columns.data());
    detail::blockedGemm(Weights.data(), static_cast<size_t>(ColRows), 1,
                        Columns.data(), static_cast<size_t>(ColCols), 1,
                        Out.data() + S * OutPlane, M, ColRows, ColCols,
                        /*Accumulate=*/false, Bias.data());
  }
  return Out;
}

std::vector<float> convViaFused(const ConvProblem &P,
                                const std::vector<float> &Images,
                                const std::vector<float> &Weights,
                                const std::vector<float> &Bias,
                                const PackedPanels *Pre,
                                const ConvSplit *Forced) {
  const int OutH = P.G.outExtent(P.Height);
  const int OutW = P.G.outExtent(P.Width);
  const size_t OutPlane =
      static_cast<size_t>(P.G.OutChannels) * OutH * OutW;
  std::vector<float> Out(static_cast<size_t>(P.Batch) * OutPlane);
  convForwardFused(Images.data(), P.Batch, P.Height, P.Width, P.G, Pre,
                   Weights.data(), Bias.data(), /*FuseReLU=*/false,
                   Out.data(), Forced);
  return Out;
}

void expectBitIdentical(const std::vector<float> &A,
                        const std::vector<float> &B, const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  EXPECT_EQ(0, std::memcmp(A.data(), B.data(), A.size() * sizeof(float)))
      << What << ": outputs differ in at least one bit";
}

TEST(KernelFusedTest, MatchesMaterializedIm2colBitForBit) {
  for (const ConvProblem &P : convProblems()) {
    const int ColRows = P.G.InChannels * P.G.KernelSize * P.G.KernelSize;
    const auto Images = fillDeterministic(
        static_cast<size_t>(P.Batch) * P.G.InChannels * P.Height * P.Width,
        0.125f);
    const auto Weights = fillDeterministic(
        static_cast<size_t>(P.G.OutChannels) * ColRows, 0.25f);
    const auto Bias =
        fillDeterministic(static_cast<size_t>(P.G.OutChannels), 0.5f);

    const auto Expected = convViaMaterializedIm2col(P, Images, Weights, Bias);
    const ConvSplit Serial; // defaults to Serial
    const auto Fused =
        convViaFused(P, Images, Weights, Bias, nullptr, &Serial);
    expectBitIdentical(Expected, Fused, "fused vs materialized");
  }
}

TEST(KernelFusedTest, EverySplitKindIsBitIdenticalToSerial) {
  setKernelWorkers(4);
  for (const ConvProblem &P : convProblems()) {
    const int OutH = P.G.outExtent(P.Height);
    const int OutW = P.G.outExtent(P.Width);
    const int ColRows = P.G.InChannels * P.G.KernelSize * P.G.KernelSize;
    const auto Images = fillDeterministic(
        static_cast<size_t>(P.Batch) * P.G.InChannels * P.Height * P.Width,
        0.0625f);
    const auto Weights = fillDeterministic(
        static_cast<size_t>(P.G.OutChannels) * ColRows, 0.25f);
    const auto Bias =
        fillDeterministic(static_cast<size_t>(P.G.OutChannels), 1.0f);

    const ConvSplit Serial;
    const auto Golden =
        convViaFused(P, Images, Weights, Bias, nullptr, &Serial);

    ConvSplit Inter;
    Inter.Kind = ConvSplitKind::InterOp;
    Inter.Tasks = static_cast<size_t>(P.Batch);
    expectBitIdentical(
        Golden, convViaFused(P, Images, Weights, Bias, nullptr, &Inter),
        "inter-op vs serial");

    // Intra-op with several chunk widths, including one that does not
    // divide the column count and one narrower than NR.
    for (int Chunk : {7, 16, 48, OutH * OutW}) {
      ConvSplit Intra;
      Intra.Kind = ConvSplitKind::IntraOp;
      Intra.ColumnChunk = Chunk;
      const int ColCols = OutH * OutW;
      Intra.Tasks = static_cast<size_t>(P.Batch) *
                    ((ColCols + Chunk - 1) / Chunk);
      expectBitIdentical(
          Golden, convViaFused(P, Images, Weights, Bias, nullptr, &Intra),
          "intra-op vs serial");
    }
  }
  setKernelWorkers(1);
}

TEST(KernelFusedTest, PrePackedWeightsMatchPerCallPacking) {
  for (const ConvProblem &P : convProblems()) {
    const int ColRows = P.G.InChannels * P.G.KernelSize * P.G.KernelSize;
    const auto Images = fillDeterministic(
        static_cast<size_t>(P.Batch) * P.G.InChannels * P.Height * P.Width,
        0.125f);
    const auto Weights = fillDeterministic(
        static_cast<size_t>(P.G.OutChannels) * ColRows, 0.375f);
    const auto Bias =
        fillDeterministic(static_cast<size_t>(P.G.OutChannels), 0.5f);

    const PackedPanels Pre =
        packGemmA(Weights.data(), static_cast<size_t>(ColRows), 1,
                  P.G.OutChannels, ColRows);
    const ConvSplit Serial;
    expectBitIdentical(
        convViaFused(P, Images, Weights, Bias, nullptr, &Serial),
        convViaFused(P, Images, Weights, Bias, &Pre, &Serial),
        "pre-packed vs per-call packed");
  }
}

//===----------------------------------------------------------------------===//
// Worker-count bit-identity of whole-model eval forwards
//===----------------------------------------------------------------------===//

Graph buildFullModel(StandardModel Which, std::string &LogitsNode) {
  Result<ModelSpec> Spec = makeStandardModel(Which, 4);
  EXPECT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  const MultiplexingModel Model(Spec.take());
  Graph Network;
  Rng Generator(7);
  Result<BuildResult> Built = Model.build(Network, BuildMode::FullModel,
                                          PruneInfo(), "full", Generator);
  EXPECT_TRUE(static_cast<bool>(Built)) << Built.message();
  LogitsNode = Built->LogitsNode;
  Network.initParams(Generator);
  return Network;
}

Tensor evalLogits(const Graph &Network, const std::string &LogitsNode) {
  Tensor In(Shape{3, 3, 8, 8});
  for (size_t I = 0; I < In.size(); ++I)
    In.data()[I] = 0.02f * static_cast<float>(static_cast<int>(I % 17) - 8);
  ExecContext Ctx(Network);
  Ctx.setInput("data", std::move(In));
  Ctx.forward(Network, /*Training=*/false);
  return Ctx.activation(LogitsNode);
}

TEST(KernelFusedTest, MiniModelEvalForwardIsBitIdenticalAcrossWorkers) {
  for (StandardModel Which : standardModels()) {
    std::string Logits;
    Graph Network = buildFullModel(Which, Logits);
    setKernelWorkers(1);
    const Tensor Golden = evalLogits(Network, Logits);
    for (unsigned Workers : {2u, 4u, 8u}) {
      setKernelWorkers(Workers);
      const Tensor Out = evalLogits(Network, Logits);
      ASSERT_EQ(Out.size(), Golden.size());
      EXPECT_EQ(0, std::memcmp(Out.data(), Golden.data(),
                               Golden.size() * sizeof(float)))
          << standardModelName(Which) << " diverges at " << Workers
          << " workers";
    }
    setKernelWorkers(1);
  }
}

//===----------------------------------------------------------------------===//
// WOOTZ_KERNEL_WORKERS parsing
//===----------------------------------------------------------------------===//

TEST(KernelWorkersEnvTest, AcceptsPlainCountsAndZeroForHardware) {
  std::string Warning;
  EXPECT_EQ(parseKernelWorkers("1", &Warning), 1u);
  EXPECT_TRUE(Warning.empty());
  EXPECT_EQ(parseKernelWorkers("4", &Warning), 4u);
  EXPECT_TRUE(Warning.empty());
  EXPECT_EQ(parseKernelWorkers("4 ", &Warning), 4u) << "trailing blanks ok";
  EXPECT_TRUE(Warning.empty());
  EXPECT_GE(parseKernelWorkers("0", &Warning), 1u)
      << "0 resolves to hardware concurrency, never stays 0";
  EXPECT_TRUE(Warning.empty());
}

TEST(KernelWorkersEnvTest, RejectsGarbageWithWarningInsteadOfWrapping) {
  const char *Bad[] = {"-2",   "-9999999999999999999",
                       "abc",  "4x",
                       "",     "4097",
                       " ",    "0x10"};
  for (const char *Text : Bad) {
    std::string Warning;
    EXPECT_EQ(parseKernelWorkers(Text, &Warning), 1u)
        << "'" << Text << "' must fall back to serial";
    EXPECT_FALSE(Warning.empty())
        << "'" << Text << "' must produce a warning";
  }
  EXPECT_EQ(parseKernelWorkers(nullptr, nullptr), 1u);
}

} // namespace
