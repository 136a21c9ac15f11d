//===- tests/KernelFusedTest.cpp - Fused convolution tests ----------------===//
//
// Pins the fused convolution's contract on the kernel layer:
// convForwardFused() is bit-identical to a blocked GEMM over a
// materialized im2col matrix, with or without pre-packed weight panels
// — the fused path changes where panels come from, never which floats
// are summed in which order.
//
//===----------------------------------------------------------------------===//

#include "src/tensor/Kernels.h"
#include "src/tensor/Ops.h"

#include <gtest/gtest.h>

#include <cstring>
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
                                const PackedPanels *Pre) {
  const int OutH = P.G.outExtent(P.Height);
  const int OutW = P.G.outExtent(P.Width);
  const size_t OutPlane =
      static_cast<size_t>(P.G.OutChannels) * OutH * OutW;
  std::vector<float> Out(static_cast<size_t>(P.Batch) * OutPlane);
  convForwardFused(Images.data(), P.Batch, P.Height, P.Width, P.G, Pre,
                   Weights.data(), Bias.data(), /*FuseReLU=*/false,
                   Out.data());
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
    const auto Fused = convViaFused(P, Images, Weights, Bias, nullptr);
    expectBitIdentical(Expected, Fused, "fused vs materialized");
  }
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
    expectBitIdentical(convViaFused(P, Images, Weights, Bias, nullptr),
                       convViaFused(P, Images, Weights, Bias, &Pre),
                       "pre-packed vs per-call packed");
  }
}

} // namespace
