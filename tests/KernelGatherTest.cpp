//===- tests/KernelGatherTest.cpp - Vectorized data-movement loops ---------===//
//
// Pins the training step's data-movement loops (im2col, col2im, Pool2D,
// ReLU, the fused conv's panel packing and the pointwise Conv2D path)
// bit for bit to the straightforward per-element loops they replaced.
// Those loops are kept below as test-local oracles. Inputs mix NaN, ±0
// and denormals with ordinary values, accumulation targets are
// pre-seeded with -0.0f and nonzero values, and every comparison is a
// memcmp. (Named Kernel* so the sanitizer presets' filters run them.)
//
//===----------------------------------------------------------------------===//

#include "src/nn/Layers.h"
#include "src/tensor/Kernels.h"
#include "src/tensor/Ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace wootz;

namespace {

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// Ordinary values sprinkled with quiet NaN, +0, -0 and denormals of
/// both signs. One NaN bit pattern throughout, so a NaN's payload cannot
/// depend on which operand of an addition the compiler picked.
std::vector<float> mixedValues(size_t Count, uint64_t Seed,
                               bool WithNaN = true) {
  const float Denormal = std::numeric_limits<float>::denorm_min() * 37.0f;
  Rng Generator(Seed);
  std::vector<float> Out(Count);
  for (size_t I = 0; I < Count; ++I) {
    switch (Generator.nextBelow(12)) {
    case 0:
      Out[I] = WithNaN ? std::numeric_limits<float>::quiet_NaN() : 1.5f;
      break;
    case 1:
      Out[I] = 0.0f;
      break;
    case 2:
      Out[I] = -0.0f;
      break;
    case 3:
      Out[I] = Denormal;
      break;
    case 4:
      Out[I] = -Denormal;
      break;
    default:
      Out[I] = Generator.nextGaussian();
      break;
    }
  }
  return Out;
}

/// Accumulation targets: -0.0f and nonzero values, alternating in runs.
std::vector<float> seededTargets(size_t Count, uint64_t Seed) {
  Rng Generator(Seed);
  std::vector<float> Out(Count);
  for (size_t I = 0; I < Count; ++I)
    Out[I] = Generator.nextBelow(3) == 0 ? -0.0f : Generator.nextGaussian();
  return Out;
}

void expectSameBits(const std::vector<float> &Expected, const float *Actual,
                    const std::string &What) {
  ASSERT_EQ(0, std::memcmp(Expected.data(), Actual,
                           Expected.size() * sizeof(float)))
      << What << ": differs from the per-element oracle in at least one bit";
}

int outExtent(int Extent, int Window, int Stride, int Pad) {
  return (Extent + 2 * Pad - Window) / Stride + 1;
}

std::string describe(const char *Op, int Kernel, int Stride, int Pad,
                     int Height, int Width) {
  return std::string(Op) + " k" + std::to_string(Kernel) + " s" +
         std::to_string(Stride) + " p" + std::to_string(Pad) + " " +
         std::to_string(Height) + "x" + std::to_string(Width);
}

//===----------------------------------------------------------------------===//
// Oracles: the per-element loops the vectorized code replaced
//===----------------------------------------------------------------------===//

void im2colOracle(const float *Image, int Channels, int Height, int Width,
                  const ConvGeometry &Geometry, float *Columns) {
  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const int Kernel = Geometry.KernelSize;
  float *Out = Columns;
  for (int C = 0; C < Channels; ++C) {
    const float *Plane = Image + static_cast<size_t>(C) * Height * Width;
    for (int KH = 0; KH < Kernel; ++KH) {
      for (int KW = 0; KW < Kernel; ++KW) {
        for (int OH = 0; OH < OutH; ++OH) {
          const int IH = OH * Geometry.Stride - Geometry.Pad + KH;
          if (IH < 0 || IH >= Height) {
            std::memset(Out, 0, sizeof(float) * OutW);
            Out += OutW;
            continue;
          }
          const float *Row = Plane + static_cast<size_t>(IH) * Width;
          for (int OW = 0; OW < OutW; ++OW) {
            const int IW = OW * Geometry.Stride - Geometry.Pad + KW;
            *Out++ = (IW >= 0 && IW < Width) ? Row[IW] : 0.0f;
          }
        }
      }
    }
  }
}

void col2imOracle(const float *Columns, int Channels, int Height, int Width,
                  const ConvGeometry &Geometry, float *Image) {
  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const int Kernel = Geometry.KernelSize;
  const float *In = Columns;
  for (int C = 0; C < Channels; ++C) {
    float *Plane = Image + static_cast<size_t>(C) * Height * Width;
    for (int KH = 0; KH < Kernel; ++KH) {
      for (int KW = 0; KW < Kernel; ++KW) {
        for (int OH = 0; OH < OutH; ++OH) {
          const int IH = OH * Geometry.Stride - Geometry.Pad + KH;
          if (IH < 0 || IH >= Height) {
            In += OutW;
            continue;
          }
          float *Row = Plane + static_cast<size_t>(IH) * Width;
          for (int OW = 0; OW < OutW; ++OW) {
            const int IW = OW * Geometry.Stride - Geometry.Pad + KW;
            if (IW >= 0 && IW < Width)
              Row[IW] += *In;
            ++In;
          }
        }
      }
    }
  }
}

struct PoolCase {
  Pool2D::Mode Mode;
  int Window, Stride, Pad;
  int Planes, Height, Width;
  int OutH, OutW;
};

void poolForwardOracle(const PoolCase &P, const float *In, float *Out,
                       float *ArgMax) {
  size_t OutIndex = 0;
  for (int Plane = 0; Plane < P.Planes; ++Plane) {
    const float *Src = In + static_cast<size_t>(Plane) * P.Height * P.Width;
    for (int OH = 0; OH < P.OutH; ++OH) {
      for (int OW = 0; OW < P.OutW; ++OW, ++OutIndex) {
        const int H0 = OH * P.Stride - P.Pad;
        const int W0 = OW * P.Stride - P.Pad;
        if (P.Mode == Pool2D::Mode::Max) {
          float Best = -3.4e38f;
          int BestOffset = -1;
          for (int KH = 0; KH < P.Window; ++KH) {
            const int IH = H0 + KH;
            if (IH < 0 || IH >= P.Height)
              continue;
            for (int KW = 0; KW < P.Window; ++KW) {
              const int IW = W0 + KW;
              if (IW < 0 || IW >= P.Width)
                continue;
              const int Offset = IH * P.Width + IW;
              if (Src[Offset] > Best) {
                Best = Src[Offset];
                BestOffset = Offset;
              }
            }
          }
          Out[OutIndex] = Best;
          ArgMax[OutIndex] = static_cast<float>(BestOffset);
        } else {
          float Total = 0.0f;
          for (int KH = 0; KH < P.Window; ++KH) {
            const int IH = H0 + KH;
            if (IH < 0 || IH >= P.Height)
              continue;
            for (int KW = 0; KW < P.Window; ++KW) {
              const int IW = W0 + KW;
              if (IW >= 0 && IW < P.Width)
                Total += Src[IH * P.Width + IW];
            }
          }
          Out[OutIndex] = Total / static_cast<float>(P.Window * P.Window);
        }
      }
    }
  }
}

void poolBackwardOracle(const PoolCase &P, const float *GradOut,
                        const float *ArgMax, float *GradIn) {
  size_t OutIndex = 0;
  for (int Plane = 0; Plane < P.Planes; ++Plane) {
    float *GradPlane =
        GradIn + static_cast<size_t>(Plane) * P.Height * P.Width;
    for (int OH = 0; OH < P.OutH; ++OH) {
      for (int OW = 0; OW < P.OutW; ++OW, ++OutIndex) {
        const float Grad = GradOut[OutIndex];
        if (P.Mode == Pool2D::Mode::Max) {
          GradPlane[static_cast<int>(ArgMax[OutIndex])] += Grad;
          continue;
        }
        const float Share = Grad / static_cast<float>(P.Window * P.Window);
        const int H0 = OH * P.Stride - P.Pad;
        const int W0 = OW * P.Stride - P.Pad;
        for (int KH = 0; KH < P.Window; ++KH) {
          const int IH = H0 + KH;
          if (IH < 0 || IH >= P.Height)
            continue;
          for (int KW = 0; KW < P.Window; ++KW) {
            const int IW = W0 + KW;
            if (IW >= 0 && IW < P.Width)
              GradPlane[IH * P.Width + IW] += Share;
          }
        }
      }
    }
  }
}

void reluForwardOracle(const std::vector<float> &In, std::vector<float> &Out) {
  for (size_t I = 0; I < In.size(); ++I)
    Out[I] = In[I] > 0.0f ? In[I] : 0.0f;
}

void reluBackwardOracle(const std::vector<float> &Out,
                        const std::vector<float> &GradOut,
                        std::vector<float> &GradIn) {
  for (size_t I = 0; I < Out.size(); ++I)
    if (Out[I] > 0.0f)
      GradIn[I] += GradOut[I];
}

/// Max pooling's contract is a non-empty window with at least one value
/// above -3.4e38; a window of nothing but NaN would trip the layer's
/// assert. Replaces the NaNs of any such window with ordinary values.
void giveEveryMaxWindowANumber(const PoolCase &P, std::vector<float> &In) {
  for (int Plane = 0; Plane < P.Planes; ++Plane) {
    float *Src = In.data() + static_cast<size_t>(Plane) * P.Height * P.Width;
    for (int OH = 0; OH < P.OutH; ++OH)
      for (int OW = 0; OW < P.OutW; ++OW) {
        const int H0 = OH * P.Stride - P.Pad;
        const int W0 = OW * P.Stride - P.Pad;
        bool HasNumber = false;
        for (int IH = std::max(0, H0);
             IH < std::min(P.Height, H0 + P.Window); ++IH)
          for (int IW = std::max(0, W0);
               IW < std::min(P.Width, W0 + P.Window); ++IW)
            HasNumber = HasNumber || !std::isnan(Src[IH * P.Width + IW]);
        if (HasNumber)
          continue;
        for (int IH = std::max(0, H0);
             IH < std::min(P.Height, H0 + P.Window); ++IH)
          for (int IW = std::max(0, W0);
               IW < std::min(P.Width, W0 + P.Window); ++IW)
            Src[IH * P.Width + IW] = 0.25f * static_cast<float>(IH - IW);
      }
  }
}

//===----------------------------------------------------------------------===//
// im2col / col2im
//===----------------------------------------------------------------------===//

TEST(KernelGatherTest, Im2colAndCol2imMatchPerElementLoops) {
  const int Channels = 2;
  int Cases = 0;
  for (int Kernel = 1; Kernel <= 5; ++Kernel)
    for (int Stride = 1; Stride <= 3; ++Stride)
      for (int Pad = 0; Pad <= 2; ++Pad)
        for (int Height = 1; Height <= 9; ++Height)
          for (int Width : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 23}) {
            const ConvGeometry G{Channels, 1, Kernel, Stride, Pad};
            const int OutH = G.outExtent(Height);
            const int OutW = G.outExtent(Width);
            if (OutH <= 0 || OutW <= 0)
              continue;
            ++Cases;
            const std::string What =
                describe("im2col", Kernel, Stride, Pad, Height, Width);
            const size_t ImageSize =
                static_cast<size_t>(Channels) * Height * Width;
            const size_t ColsSize = static_cast<size_t>(Channels) * Kernel *
                                    Kernel * OutH * OutW;
            const std::vector<float> Image = mixedValues(ImageSize, Cases);
            // Poisoned outputs: every element must be written.
            std::vector<float> Expected(ColsSize, 7.0f),
                Actual(ColsSize, -7.0f);
            im2colOracle(Image.data(), Channels, Height, Width, G,
                         Expected.data());
            im2col(Image.data(), Channels, Height, Width, G, Actual.data());
            expectSameBits(Expected, Actual.data(), What);

            const std::vector<float> Columns =
                mixedValues(ColsSize, 1000 + Cases);
            std::vector<float> ExpectedImage =
                seededTargets(ImageSize, 2000 + Cases);
            std::vector<float> ActualImage = ExpectedImage;
            col2imOracle(Columns.data(), Channels, Height, Width, G,
                         ExpectedImage.data());
            col2im(Columns.data(), Channels, Height, Width, G,
                   ActualImage.data());
            expectSameBits(ExpectedImage, ActualImage.data(),
                           describe("col2im", Kernel, Stride, Pad, Height,
                                    Width));
          }
  EXPECT_GT(Cases, 1000);
}

//===----------------------------------------------------------------------===//
// Pool2D
//===----------------------------------------------------------------------===//

void checkPool(const PoolCase &P, uint64_t Seed) {
  const std::string What = describe(
      P.Mode == Pool2D::Mode::Max ? "maxpool" : "avgpool", P.Window,
      P.Stride, P.Pad, P.Height, P.Width);
  const size_t InSize = static_cast<size_t>(P.Planes) * P.Height * P.Width;
  const size_t OutSize = static_cast<size_t>(P.Planes) * P.OutH * P.OutW;

  std::vector<float> InValues = mixedValues(InSize, Seed);
  if (P.Mode == Pool2D::Mode::Max)
    giveEveryMaxWindowANumber(P, InValues);
  std::vector<float> ExpectedOut(OutSize), ArgMax(OutSize);
  poolForwardOracle(P, InValues.data(), ExpectedOut.data(), ArgMax.data());

  Pool2D Layer(P.Mode, P.Window, P.Stride, P.Pad);
  Tensor In(Shape{1, P.Planes, P.Height, P.Width});
  std::memcpy(In.data(), InValues.data(), InSize * sizeof(float));
  ASSERT_EQ(Layer.outputShape({In.shape()}),
            (Shape{1, P.Planes, P.OutH, P.OutW}))
      << What;
  Tensor Out(Shape{1, P.Planes, P.OutH, P.OutW});
  Out.fill(-5.0f);
  LayerScratch Scratch;
  const std::vector<const Tensor *> Inputs{&In};
  Layer.forward(Inputs, Out, Scratch, /*Training=*/true);
  expectSameBits(ExpectedOut, Out.data(), What + " forward");

  const std::vector<float> GradOutValues = mixedValues(OutSize, Seed + 7);
  std::vector<float> ExpectedGradIn = seededTargets(InSize, Seed + 11);
  Tensor GradOut(Out.shape());
  std::memcpy(GradOut.data(), GradOutValues.data(), OutSize * sizeof(float));
  Tensor GradIn(In.shape());
  std::memcpy(GradIn.data(), ExpectedGradIn.data(), InSize * sizeof(float));
  poolBackwardOracle(P, GradOutValues.data(), ArgMax.data(),
                     ExpectedGradIn.data());
  const std::vector<Tensor *> GradInputs{&GradIn};
  Layer.backward(Inputs, Out, GradOut, Scratch, GradInputs);
  expectSameBits(ExpectedGradIn, GradIn.data(), What + " backward");
}

TEST(KernelGatherTest, PoolingMatchesPerTapLoops) {
  int Cases = 0;
  for (Pool2D::Mode Mode : {Pool2D::Mode::Max, Pool2D::Mode::Average})
    for (int Window = 1; Window <= 5; ++Window)
      for (int Stride = 1; Stride <= 3; ++Stride)
        for (int Pad = 0; Pad <= 2; ++Pad) {
          // A max window must hold at least one tap.
          if (Mode == Pool2D::Mode::Max && Pad >= Window)
            continue;
          for (int Height = 1; Height <= 9; ++Height)
            for (int Width : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 23}) {
              PoolCase P{Mode,
                         Window,
                         Stride,
                         Pad,
                         3,
                         Height,
                         Width,
                         outExtent(Height, Window, Stride, Pad),
                         outExtent(Width, Window, Stride, Pad)};
              if (P.OutH <= 0 || P.OutW <= 0)
                continue;
              ++Cases;
              checkPool(P, 100 + Cases);
              if (HasFatalFailure())
                return;
            }
        }
  EXPECT_GT(Cases, 2000);
}

//===----------------------------------------------------------------------===//
// ReLU
//===----------------------------------------------------------------------===//

TEST(KernelGatherTest, ReluMatchesConditionalLoops) {
  // Odd sizes leave scalar tails after any vector body.
  for (size_t Count : {1u, 3u, 7u, 16u, 33u, 515u}) {
    const std::string What = "relu " + std::to_string(Count);
    const std::vector<float> InValues = mixedValues(Count, Count);
    std::vector<float> ExpectedOut(Count);
    reluForwardOracle(InValues, ExpectedOut);

    ReLU Layer;
    Tensor In(Shape{1, static_cast<int>(Count)});
    std::memcpy(In.data(), InValues.data(), Count * sizeof(float));
    Tensor Out(In.shape());
    Out.fill(3.0f);
    LayerScratch Scratch;
    const std::vector<const Tensor *> Inputs{&In};
    Layer.forward(Inputs, Out, Scratch, /*Training=*/true);
    expectSameBits(ExpectedOut, Out.data(), What + " forward");

    const std::vector<float> GradOutValues = mixedValues(Count, Count + 5);
    std::vector<float> ExpectedGradIn = seededTargets(Count, Count + 9);
    Tensor GradOut(In.shape());
    std::memcpy(GradOut.data(), GradOutValues.data(), Count * sizeof(float));
    Tensor GradIn(In.shape());
    std::memcpy(GradIn.data(), ExpectedGradIn.data(), Count * sizeof(float));
    reluBackwardOracle(ExpectedOut, GradOutValues, ExpectedGradIn);
    const std::vector<Tensor *> GradInputs{&GradIn};
    Layer.backward(Inputs, Out, GradOut, Scratch, GradInputs);
    expectSameBits(ExpectedGradIn, GradIn.data(), What + " backward");
  }
}

//===----------------------------------------------------------------------===//
// Fused conv panel packing (row segments)
//===----------------------------------------------------------------------===//

TEST(KernelGatherTest, FusedConvPacksMultiRowPanelsLikeMaterializedIm2col) {
  // OutW below NR = 16 makes every panel span several output rows;
  // above it, panels straddle one row boundary.
  int Cases = 0;
  for (int Kernel = 1; Kernel <= 5; ++Kernel)
    for (int Stride = 1; Stride <= 3; ++Stride)
      for (int Pad = 0; Pad <= 2; ++Pad)
        for (int Extent : {1, 2, 3, 5, 8, 9, 17, 23}) {
          const ConvGeometry G{3, 5, Kernel, Stride, Pad};
          const int OutH = G.outExtent(Extent);
          const int OutW = G.outExtent(Extent);
          if (OutH <= 0 || OutW <= 0)
            continue;
          ++Cases;
          const int Batch = 2;
          const int ColRows = G.InChannels * Kernel * Kernel;
          const int ColCols = OutH * OutW;
          const size_t InPlane =
              static_cast<size_t>(G.InChannels) * Extent * Extent;
          const size_t OutPlane = static_cast<size_t>(G.OutChannels) * ColCols;
          const std::vector<float> Images = mixedValues(Batch * InPlane, Cases);
          const std::vector<float> Weights = mixedValues(
              static_cast<size_t>(G.OutChannels) * ColRows, 500 + Cases,
              /*WithNaN=*/false);
          const std::vector<float> Bias =
              mixedValues(G.OutChannels, 900 + Cases, /*WithNaN=*/false);

          std::vector<float> Columns(static_cast<size_t>(ColRows) * ColCols);
          std::vector<float> Expected(Batch * OutPlane);
          for (int S = 0; S < Batch; ++S) {
            im2colOracle(Images.data() + S * InPlane, G.InChannels, Extent,
                         Extent, G, Columns.data());
            detail::blockedGemm(Weights.data(), static_cast<size_t>(ColRows),
                                1, Columns.data(),
                                static_cast<size_t>(ColCols), 1,
                                Expected.data() + S * OutPlane,
                                G.OutChannels, ColRows, ColCols,
                                /*Accumulate=*/false, Bias.data());
          }
          std::vector<float> Actual(Batch * OutPlane);
          convForwardFused(Images.data(), Batch, Extent, Extent, G, nullptr,
                           Weights.data(), Bias.data(), /*FuseReLU=*/false,
                           Actual.data());
          expectSameBits(Expected, Actual.data(),
                         describe("fused conv", Kernel, Stride, Pad, Extent,
                                  Extent));
        }
  EXPECT_GT(Cases, 200);
}

//===----------------------------------------------------------------------===//
// Eval-mode Conv2D forward
//===----------------------------------------------------------------------===//

TEST(KernelGatherTest, EvalConvForwardMatchesMaterializedIm2colAtBatch1And64) {
  // The eval forward packs the weight panels once per call and shares
  // them across the whole batch; every sample must still come out as
  // the blocked GEMM over its own materialized im2col matrix, for any
  // batch.
  struct EvalCase {
    ConvGeometry G;
    bool HasBias;
  };
  int Cases = 0;
  for (const EvalCase &C : {EvalCase{{3, 8, 3, 1, 1}, true},
                            EvalCase{{8, 16, 3, 2, 1}, true},
                            EvalCase{{16, 12, 1, 1, 0}, false},
                            EvalCase{{4, 6, 5, 1, 2}, true}})
    for (int Batch : {1, 64}) {
      ++Cases;
      const ConvGeometry &G = C.G;
      const int Height = 8, Width = 8;
      const int OutH = G.outExtent(Height), OutW = G.outExtent(Width);
      const int ColRows = G.InChannels * G.KernelSize * G.KernelSize;
      const int ColCols = OutH * OutW;
      const size_t InPlane =
          static_cast<size_t>(G.InChannels) * Height * Width;
      const size_t OutPlane = static_cast<size_t>(G.OutChannels) * ColCols;
      Conv2D Conv(G, C.HasBias);
      Rng Generator(60 + Cases);
      Conv.initParams(Generator);
      const float *Bias = nullptr;
      if (Param *B = Conv.bias()) {
        for (size_t I = 0; I < B->Value.size(); ++I)
          B->Value[I] = 0.125f * static_cast<float>(I);
        Bias = B->Value.data();
      }
      const std::vector<float> Images = mixedValues(Batch * InPlane, Cases);

      std::vector<float> Columns(static_cast<size_t>(ColRows) * ColCols);
      std::vector<float> Expected(Batch * OutPlane);
      for (int S = 0; S < Batch; ++S) {
        im2colOracle(Images.data() + S * InPlane, G.InChannels, Height,
                     Width, G, Columns.data());
        detail::blockedGemm(Conv.weight().Value.data(),
                            static_cast<size_t>(ColRows), 1,
                            Columns.data(), static_cast<size_t>(ColCols), 1,
                            Expected.data() + S * OutPlane, G.OutChannels,
                            ColRows, ColCols, /*Accumulate=*/false, Bias);
      }

      Tensor In(Shape{Batch, G.InChannels, Height, Width});
      std::memcpy(In.data(), Images.data(), Images.size() * sizeof(float));
      Tensor Out(Conv.outputShape({In.shape()}));
      LayerScratch Scratch;
      Conv.forward({&In}, Out, Scratch, /*Training=*/false);
      expectSameBits(Expected, Out.data(),
                     describe("eval conv", G.KernelSize, G.Stride, G.Pad,
                              Height, Width) +
                         " batch " + std::to_string(Batch));
    }
}

//===----------------------------------------------------------------------===//
// Pointwise Conv2D reads its input plane in place
//===----------------------------------------------------------------------===//

struct ConvRun {
  std::vector<float> Out, GradIn, WeightGrad, BiasGrad;
};

/// The materialized training path: per-sample im2col matrix, the same
/// GEMM calls, per-sample parameter gradients reduced in sample order.
ConvRun pointwiseOracle(const ConvGeometry &G, int Batch, int Height,
                        int Width, const std::vector<float> &In,
                        const std::vector<float> &Weights,
                        const std::vector<float> &Bias,
                        const std::vector<float> &GradOut, ConvRun Seeds) {
  const int ColRows = G.InChannels;
  const int ColCols = Height * Width;
  const int M = G.OutChannels;
  const size_t InPlane = static_cast<size_t>(ColRows) * ColCols;
  const size_t OutPlane = static_cast<size_t>(M) * ColCols;
  ConvRun Run = std::move(Seeds);
  Run.Out.assign(Batch * OutPlane, 0.0f);
  std::vector<float> Columns(InPlane), GradCols(InPlane);
  std::vector<std::vector<float>> WeightGrads(Batch), BiasGrads(Batch);
  for (int N = 0; N < Batch; ++N) {
    im2colOracle(In.data() + N * InPlane, G.InChannels, Height, Width, G,
                 Columns.data());
    gemmBias(Weights.data(), Columns.data(), Bias.data(),
             Run.Out.data() + N * OutPlane, M, ColRows, ColCols);
  }
  for (int N = 0; N < Batch; ++N) {
    im2colOracle(In.data() + N * InPlane, G.InChannels, Height, Width, G,
                 Columns.data());
    const float *GradOutSample = GradOut.data() + N * OutPlane;
    WeightGrads[N].resize(static_cast<size_t>(M) * ColRows);
    gemmTransposeB(GradOutSample, Columns.data(), WeightGrads[N].data(), M,
                   ColCols, ColRows);
    BiasGrads[N].resize(M);
    for (int O = 0; O < M; ++O) {
      float Total = 0.0f;
      for (int I = 0; I < ColCols; ++I)
        Total += GradOutSample[static_cast<size_t>(O) * ColCols + I];
      BiasGrads[N][O] = Total;
    }
    gemmTransposeA(Weights.data(), GradOutSample, GradCols.data(), ColRows,
                   M, ColCols);
    col2imOracle(GradCols.data(), G.InChannels, Height, Width, G,
                 Run.GradIn.data() + N * InPlane);
  }
  for (int N = 0; N < Batch; ++N) {
    axpy(1.0f, WeightGrads[N].data(), Run.WeightGrad.data(),
         WeightGrads[N].size());
    axpy(1.0f, BiasGrads[N].data(), Run.BiasGrad.data(), M);
  }
  return Run;
}

TEST(KernelGatherTest, PointwiseConvMatchesMaterializedIm2colPath) {
  // The first product stays under the blocked engine's threshold (the
  // reference loops run); the second runs the blocked engine.
  for (const ConvGeometry G : {ConvGeometry{6, 5, 1, 1, 0},
                               ConvGeometry{32, 24, 1, 1, 0}}) {
    const int Batch = 3, Height = 8, Width = 8;
    const std::string What = "pointwise conv " +
                             std::to_string(G.InChannels) + "->" +
                             std::to_string(G.OutChannels);
    Conv2D Conv(G);
    Rng Generator(5);
    Conv.initParams(Generator);
    for (size_t I = 0; I < Conv.bias()->Value.size(); ++I)
      Conv.bias()->Value[I] = 0.125f * static_cast<float>(I);
    const size_t InSize =
        static_cast<size_t>(Batch) * G.InChannels * Height * Width;
    const size_t OutSize =
        static_cast<size_t>(Batch) * G.OutChannels * Height * Width;
    const std::vector<float> InValues = mixedValues(InSize, 31, false);
    const std::vector<float> GradOutValues = mixedValues(OutSize, 37, false);

    ConvRun Seeds;
    Seeds.GradIn = seededTargets(InSize, 41);
    Seeds.WeightGrad = seededTargets(Conv.weight().Grad.size(), 43);
    Seeds.BiasGrad = seededTargets(G.OutChannels, 47);
    const std::vector<float> Weights(
        Conv.weight().Value.data(),
        Conv.weight().Value.data() + Conv.weight().Value.size());
    const std::vector<float> Bias(
        Conv.bias()->Value.data(),
        Conv.bias()->Value.data() + Conv.bias()->Value.size());
    const ConvRun Expected = pointwiseOracle(
        G, Batch, Height, Width, InValues, Weights, Bias, GradOutValues,
        Seeds);

    Tensor In(Shape{Batch, G.InChannels, Height, Width});
    std::memcpy(In.data(), InValues.data(), InSize * sizeof(float));
    Tensor Out(Conv.outputShape({In.shape()}));
    LayerScratch Scratch;
    const std::vector<const Tensor *> Inputs{&In};
    Conv.forward(Inputs, Out, Scratch, /*Training=*/true);
    expectSameBits(Expected.Out, Out.data(), What + " forward");
    ASSERT_FALSE(Scratch.Buffers.empty());
    EXPECT_EQ(Scratch.Buffers[0].size(), 0u)
        << "a pointwise conv keeps no im2col buffer";

    Tensor GradOut(Out.shape());
    std::memcpy(GradOut.data(), GradOutValues.data(), OutSize * sizeof(float));
    Tensor GradIn(In.shape());
    std::memcpy(GradIn.data(), Seeds.GradIn.data(), InSize * sizeof(float));
    std::memcpy(Conv.weight().Grad.data(), Seeds.WeightGrad.data(),
                Seeds.WeightGrad.size() * sizeof(float));
    std::memcpy(Conv.bias()->Grad.data(), Seeds.BiasGrad.data(),
                Seeds.BiasGrad.size() * sizeof(float));
    const std::vector<Tensor *> GradInputs{&GradIn};
    Conv.backward(Inputs, Out, GradOut, Scratch, GradInputs);
    expectSameBits(Expected.GradIn, GradIn.data(), What + " input grad");
    expectSameBits(Expected.WeightGrad, Conv.weight().Grad.data(),
                   What + " weight grad");
    expectSameBits(Expected.BiasGrad, Conv.bias()->Grad.data(),
                   What + " bias grad");
  }
}

} // namespace
