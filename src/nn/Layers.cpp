//===- nn/Layers.cpp -------------------------------------------------------===//

#include "src/nn/Layers.h"

#include "src/tensor/Kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

using namespace wootz;

Layer::~Layer() = default;

size_t Layer::paramCount() {
  size_t Count = 0;
  for (Param *P : params())
    Count += P->Value.size();
  return Count;
}

//===----------------------------------------------------------------------===//
// Conv2D
//===----------------------------------------------------------------------===//

/// True when the im2col matrix of \p G is the input plane itself (1x1,
/// stride 1, no padding): C x H*W, one row per channel.
static bool isPointwise(const ConvGeometry &G) {
  return G.KernelSize == 1 && G.Stride == 1 && G.Pad == 0;
}

Conv2D::Conv2D(ConvGeometry Geometry, bool HasBias)
    : Geometry(Geometry), HasBias(HasBias),
      Weight(Shape{Geometry.OutChannels, Geometry.InChannels,
                   Geometry.KernelSize, Geometry.KernelSize}),
      Bias(Shape{Geometry.OutChannels}) {
  assert(Geometry.InChannels > 0 && Geometry.OutChannels > 0 &&
         Geometry.KernelSize > 0 && Geometry.Stride > 0 &&
         "invalid convolution geometry");
}

Shape Conv2D::outputShape(const std::vector<Shape> &InputShapes) const {
  assert(InputShapes.size() == 1 && InputShapes[0].rank() == 4 &&
         "conv expects one NCHW input");
  const Shape &In = InputShapes[0];
  assert(In[1] == Geometry.InChannels && "conv input channel mismatch");
  return Shape{In[0], Geometry.OutChannels, Geometry.outExtent(In[2]),
               Geometry.outExtent(In[3])};
}

void Conv2D::forward(const std::vector<const Tensor *> &Inputs, Tensor &Out,
                     LayerScratch &Scratch, bool Training) const {
  const Tensor &In = *Inputs[0];
  const int Batch = In.shape()[0];
  const int Height = In.shape()[2];
  const int Width = In.shape()[3];
  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const int ColRows =
      Geometry.InChannels * Geometry.KernelSize * Geometry.KernelSize;
  const int ColCols = OutH * OutW;

  const float *WeightPtr = Weight.Value.data();
  const float *BiasPtr = HasBias ? Bias.Value.data() : nullptr;

  // Inference packs GEMM panels straight from the input image — no
  // materialized im2col matrix at all. The weight panels are packed once
  // per call and shared by every sample of the batch (a null pre-pack
  // would repack them per sample). Any batch im2col buffer a previous
  // training pass left behind is released so evaluation holds no column
  // memory.
  if (!Training) {
    if (!Scratch.Buffers.empty() && !Scratch.Buffers[0].empty())
      Scratch.Buffers[0] = Tensor();
    const PackedPanels Packed = packGemmA(
        WeightPtr, static_cast<size_t>(ColRows), 1, Geometry.OutChannels,
        ColRows);
    convForwardFused(In.data(), Batch, Height, Width, Geometry, &Packed,
                     WeightPtr, BiasPtr, /*FuseReLU=*/false, Out.data());
    return;
  }

  // Training keeps the whole batch's im2col expansion for backward to
  // reuse. A pointwise conv's im2col matrix is its input plane, which
  // the GEMMs read in place.
  const bool Pointwise = isPointwise(Geometry);
  if (Scratch.Buffers.empty())
    Scratch.Buffers.emplace_back();
  Tensor *Cols = &Scratch.Buffers[0];
  const Shape ColsShape{Batch, 1, ColRows, ColCols};
  if (!Pointwise && Cols->shape() != ColsShape)
    *Cols = Tensor(ColsShape);

  const size_t InPlane = static_cast<size_t>(Geometry.InChannels) * Height *
                         Width;
  const size_t OutPlane =
      static_cast<size_t>(Geometry.OutChannels) * ColCols;
  const size_t ColsPlane = static_cast<size_t>(ColRows) * ColCols;

  for (size_t N = 0; N < static_cast<size_t>(Batch); ++N) {
    const float *SampleCols = In.data() + N * InPlane;
    if (!Pointwise) {
      float *Expanded = Cols->data() + N * ColsPlane;
      im2col(SampleCols, Geometry.InChannels, Height, Width, Geometry,
             Expanded);
      SampleCols = Expanded;
    }
    float *OutSample = Out.data() + N * OutPlane;
    if (BiasPtr)
      gemmBias(WeightPtr, SampleCols, BiasPtr, OutSample,
               Geometry.OutChannels, ColRows, ColCols);
    else
      gemm(WeightPtr, SampleCols, OutSample, Geometry.OutChannels, ColRows,
           ColCols);
  }
}

void Conv2D::backward(const std::vector<const Tensor *> &Inputs,
                      const Tensor &Out, const Tensor &GradOut,
                      LayerScratch &Scratch,
                      const std::vector<Tensor *> &GradInputs) {
  (void)Out;
  const Tensor &In = *Inputs[0];
  const int Batch = In.shape()[0];
  const int Height = In.shape()[2];
  const int Width = In.shape()[3];
  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const int ColRows =
      Geometry.InChannels * Geometry.KernelSize * Geometry.KernelSize;
  const int ColCols = OutH * OutW;

  const bool Pointwise = isPointwise(Geometry);
  const Shape ColsShape{Batch, 1, ColRows, ColCols};
  assert(!Scratch.Buffers.empty() &&
         (Pointwise || Scratch.Buffers[0].shape() == ColsShape) &&
         "conv backward requires the training-mode forward pass's im2col "
         "buffer");
  (void)ColsShape;
  const size_t ColsPlane = static_cast<size_t>(ColRows) * ColCols;
  const size_t OutPlane =
      static_cast<size_t>(Geometry.OutChannels) * ColCols;
  const size_t InPlane = static_cast<size_t>(Geometry.InChannels) * Height *
                         Width;
  const float *Cols = Pointwise ? In.data() : Scratch.Buffers[0].data();

  Tensor *GradIn = GradInputs[0];
  const int WeightCount = static_cast<int>(Weight.Grad.size());
  const int BiasCount = Geometry.OutChannels;

  // Parameter gradients go to per-sample rows of scratch buffers [1] and
  // [2] that are reduced in sample order below; accumulating straight
  // into Grad would reorder the sums.
  if (Scratch.Buffers.size() < 3)
    Scratch.Buffers.resize(3);
  Tensor &WeightGrads = Scratch.Buffers[1];
  if (WeightGrads.shape() != Shape{Batch, WeightCount})
    WeightGrads = Tensor(Shape{Batch, WeightCount});
  Tensor &BiasGrads = Scratch.Buffers[2];
  if (HasBias && BiasGrads.shape() != Shape{Batch, BiasCount})
    BiasGrads = Tensor(Shape{Batch, BiasCount});

  KernelScratch &Local = KernelScratch::forCurrentThread();
  for (size_t N = 0; N < static_cast<size_t>(Batch); ++N) {
    const float *SampleCols = Cols + N * ColsPlane;
    const float *GradOutSample = GradOut.data() + N * OutPlane;
    // dW(sample) = dOut * cols^T.
    gemmTransposeB(GradOutSample, SampleCols,
                   WeightGrads.data() + N * WeightCount,
                   Geometry.OutChannels, ColCols, ColRows);
    if (HasBias) {
      float *BGrad = BiasGrads.data() + N * BiasCount;
      for (int O = 0; O < Geometry.OutChannels; ++O) {
        const float *Plane =
            GradOutSample + static_cast<size_t>(O) * ColCols;
        float Total = 0.0f;
        for (int I = 0; I < ColCols; ++I)
          Total += Plane[I];
        BGrad[O] = Total;
      }
    }
    if (!GradIn)
      continue;
    // dCols = W^T * dOut, then scatter back with col2im.
    float *GradColsBuf = Local.GradCols.ensure(ColsPlane);
    gemmTransposeA(Weight.Value.data(), GradOutSample, GradColsBuf, ColRows,
                   Geometry.OutChannels, ColCols);
    col2im(GradColsBuf, Geometry.InChannels, Height, Width, Geometry,
           GradIn->data() + N * InPlane);
  }

  for (int N = 0; N < Batch; ++N) {
    axpy(1.0f, WeightGrads.data() + N * WeightCount, Weight.Grad.data(),
         WeightCount);
    if (HasBias)
      axpy(1.0f, BiasGrads.data() + N * BiasCount, Bias.Grad.data(),
           BiasCount);
  }
}

std::vector<Param *> Conv2D::params() {
  if (HasBias)
    return {&Weight, &Bias};
  return {&Weight};
}

void Conv2D::initParams(Rng &Generator) {
  const float StdDev =
      std::sqrt(2.0f / static_cast<float>(Geometry.InChannels *
                                          Geometry.KernelSize *
                                          Geometry.KernelSize));
  for (size_t I = 0; I < Weight.Value.size(); ++I)
    Weight.Value[I] = StdDev * Generator.nextGaussian();
  Bias.Value.zero();
}

//===----------------------------------------------------------------------===//
// BatchNorm2D
//===----------------------------------------------------------------------===//

BatchNorm2D::BatchNorm2D(int Channels, float Momentum, float Epsilon)
    : Channels(Channels), Momentum(Momentum), Epsilon(Epsilon),
      Gamma(Shape{Channels}), Beta(Shape{Channels}),
      RunningMean(Shape{Channels}), RunningVar(Shape{Channels}) {
  Gamma.Value.fill(1.0f);
  RunningVar.Value.fill(1.0f);
}

Shape BatchNorm2D::outputShape(const std::vector<Shape> &InputShapes) const {
  assert(InputShapes.size() == 1 && InputShapes[0].rank() == 4 &&
         InputShapes[0][1] == Channels && "batchnorm channel mismatch");
  return InputShapes[0];
}

void BatchNorm2D::forward(const std::vector<const Tensor *> &Inputs,
                          Tensor &Out, LayerScratch &Scratch, bool Training) const {
  const Tensor &In = *Inputs[0];
  const int Batch = In.shape()[0];
  const int Height = In.shape()[2];
  const int Width = In.shape()[3];
  const int Spatial = Height * Width;
  const size_t PerSample = static_cast<size_t>(Channels) * Spatial;

  // Scratch: [0] normalized activations, [1] inverse stddev, [2] mean,
  // [3] batch variance (kept so the running-stat update below can run
  // after — and outside the lock of — the normalization loop).
  if (Scratch.Buffers.size() < 4)
    Scratch.Buffers.resize(4);
  Tensor &XHat = Scratch.Buffers[0];
  if (XHat.shape() != In.shape())
    XHat = Tensor(In.shape());
  Tensor &InvStd = Scratch.Buffers[1];
  Tensor &BatchMean = Scratch.Buffers[2];
  Tensor &BatchVar = Scratch.Buffers[3];
  if (InvStd.empty()) {
    InvStd = Tensor(Shape{Channels});
    BatchMean = Tensor(Shape{Channels});
    BatchVar = Tensor(Shape{Channels});
  }

  const double Count = static_cast<double>(Batch) * Spatial;
  for (int C = 0; C < Channels; ++C) {
    double Mean;
    double Var;
    if (Training) {
      double Total = 0.0;
      double TotalSq = 0.0;
      for (int N = 0; N < Batch; ++N) {
        const float *Plane =
            In.data() + N * PerSample + static_cast<size_t>(C) * Spatial;
        for (int I = 0; I < Spatial; ++I) {
          Total += Plane[I];
          TotalSq += static_cast<double>(Plane[I]) * Plane[I];
        }
      }
      Mean = Total / Count;
      Var = TotalSq / Count - Mean * Mean;
      if (Var < 0.0)
        Var = 0.0;
    } else {
      Mean = RunningMean.Value[C];
      Var = RunningVar.Value[C];
    }
    const float InvStdC =
        1.0f / std::sqrt(static_cast<float>(Var) + Epsilon);
    InvStd[C] = InvStdC;
    BatchMean[C] = static_cast<float>(Mean);
    BatchVar[C] = static_cast<float>(Var);
    const float GammaC = Gamma.Value[C];
    const float BetaC = Beta.Value[C];
    for (int N = 0; N < Batch; ++N) {
      const size_t Offset = N * PerSample + static_cast<size_t>(C) * Spatial;
      const float *InPlane = In.data() + Offset;
      float *XHatPlane = XHat.data() + Offset;
      float *OutPlane = Out.data() + Offset;
      for (int I = 0; I < Spatial; ++I) {
        const float Norm =
            (InPlane[I] - static_cast<float>(Mean)) * InvStdC;
        XHatPlane[I] = Norm;
        OutPlane[I] = GammaC * Norm + BetaC;
      }
    }
  }

  if (Training) {
    // Running statistics are the one piece of model state a (training)
    // forward writes; the lock keeps concurrent training forwards over
    // one shared layer race-free without serializing the normalization
    // work above. Training outputs never read the running stats, so
    // logits stay bit-identical to serial execution either way.
    std::lock_guard<std::mutex> Lock(StatsMutex);
    for (int C = 0; C < Channels; ++C) {
      RunningMean.Value[C] = Momentum * RunningMean.Value[C] +
                             (1.0f - Momentum) * BatchMean[C];
      RunningVar.Value[C] = Momentum * RunningVar.Value[C] +
                            (1.0f - Momentum) * BatchVar[C];
    }
  }
}

void BatchNorm2D::backward(const std::vector<const Tensor *> &Inputs,
                           const Tensor &Out, const Tensor &GradOut,
                           LayerScratch &Scratch,
                           const std::vector<Tensor *> &GradInputs) {
  (void)Out;
  const Tensor &In = *Inputs[0];
  const int Batch = In.shape()[0];
  const int Spatial = In.shape()[2] * In.shape()[3];
  const size_t PerSample = static_cast<size_t>(Channels) * Spatial;
  const Tensor &XHat = Scratch.Buffers[0];
  const Tensor &InvStd = Scratch.Buffers[1];
  Tensor *GradIn = GradInputs[0];
  const float Count = static_cast<float>(Batch * Spatial);

  for (int C = 0; C < Channels; ++C) {
    float DGamma = 0.0f;
    float DBeta = 0.0f;
    for (int N = 0; N < Batch; ++N) {
      const size_t Offset = N * PerSample + static_cast<size_t>(C) * Spatial;
      const float *GradPlane = GradOut.data() + Offset;
      const float *XHatPlane = XHat.data() + Offset;
      for (int I = 0; I < Spatial; ++I) {
        DGamma += GradPlane[I] * XHatPlane[I];
        DBeta += GradPlane[I];
      }
    }
    Gamma.Grad[C] += DGamma;
    Beta.Grad[C] += DBeta;
    if (!GradIn)
      continue;
    const float ScaleFactor = Gamma.Value[C] * InvStd[C] / Count;
    for (int N = 0; N < Batch; ++N) {
      const size_t Offset = N * PerSample + static_cast<size_t>(C) * Spatial;
      const float *GradPlane = GradOut.data() + Offset;
      const float *XHatPlane = XHat.data() + Offset;
      float *GradInPlane = GradIn->data() + Offset;
      for (int I = 0; I < Spatial; ++I)
        GradInPlane[I] += ScaleFactor * (Count * GradPlane[I] - DBeta -
                                         XHatPlane[I] * DGamma);
    }
  }
}

std::vector<Param *> BatchNorm2D::params() { return {&Gamma, &Beta}; }

std::vector<Param *> BatchNorm2D::state() {
  return {&Gamma, &Beta, &RunningMean, &RunningVar};
}

void BatchNorm2D::initParams(Rng &Generator) {
  (void)Generator;
  Gamma.Value.fill(1.0f);
  Beta.Value.zero();
  RunningMean.Value.zero();
  RunningVar.Value.fill(1.0f);
}

//===----------------------------------------------------------------------===//
// ReLU
//===----------------------------------------------------------------------===//

Shape ReLU::outputShape(const std::vector<Shape> &InputShapes) const {
  assert(InputShapes.size() == 1 && "relu expects one input");
  return InputShapes[0];
}

void ReLU::forward(const std::vector<const Tensor *> &Inputs, Tensor &Out,
                   LayerScratch &Scratch, bool Training) const {
  (void)Scratch;
  (void)Training;
  const Tensor &In = *Inputs[0];
  const float *X = In.data();
  float *Y = Out.data();
  for (size_t I = 0, Count = In.size(); I < Count; ++I)
    Y[I] = X[I] > 0.0f ? X[I] : 0.0f;
}

void ReLU::backward(const std::vector<const Tensor *> &Inputs,
                    const Tensor &Out, const Tensor &GradOut,
                    LayerScratch &Scratch,
                    const std::vector<Tensor *> &GradInputs) {
  (void)Inputs;
  (void)Scratch;
  Tensor *GradIn = GradInputs[0];
  if (!GradIn)
    return;
  // Branch-free so it vectorizes: where the unit is off, add -0.0f,
  // which leaves every value (±0, denormals, NaN) unchanged, so this is
  // a conditional add bit for bit. Spelled as a select followed by a
  // plain add: under GCC's default -ftrapping-math neither an `if` nor
  // `GX[I] += Y[I] > 0 ? G : -0.0f` (folded back into a conditional
  // add) vectorizes.
  const float *Y = Out.data();
  const float *GY = GradOut.data();
  float *GX = GradIn->data();
  for (size_t I = 0, Count = Out.size(); I < Count; ++I) {
    const float G = GY[I];
    const float Passed = Y[I] > 0.0f ? G : -0.0f;
    GX[I] = GX[I] + Passed;
  }
}

//===----------------------------------------------------------------------===//
// Pool2D
//===----------------------------------------------------------------------===//

Pool2D::Pool2D(Mode PoolMode, int Window, int Stride, int Pad)
    : PoolMode(PoolMode), Window(Window), Stride(Stride), Pad(Pad) {
  assert(Window > 0 && Stride > 0 && Pad >= 0 && "invalid pooling geometry");
}

Shape Pool2D::outputShape(const std::vector<Shape> &InputShapes) const {
  assert(InputShapes.size() == 1 && InputShapes[0].rank() == 4 &&
         "pooling expects one NCHW input");
  const Shape &In = InputShapes[0];
  const int OutH = (In[2] + 2 * Pad - Window) / Stride + 1;
  const int OutW = (In[3] + 2 * Pad - Window) / Stride + 1;
  assert(OutH > 0 && OutW > 0 && "pooling window larger than input");
  return Shape{In[0], In[1], OutH, OutW};
}

namespace {

/// The taps [Lo, Hi) of a pooling window starting at \p Start that fall
/// inside [0, Extent).
void windowTaps(int Start, int Window, int Extent, int &Lo, int &Hi) {
  Lo = std::max(0, -Start);
  Hi = std::max(Lo, std::min(Window, Extent - Start));
}

} // namespace

// Pooling sums every window's taps in (KH, KW) order and visits outputs
// in (N, C, OH, OW) order, so results are bit-identical to per-tap
// bounds-checked loops (KernelGatherTest keeps them as oracles). Two
// rules make the hot stride-1 average pooling (every inception
// module's pool branch) vectorize: a tap in the padding contributes
// -0.0f, which leaves any sum unchanged (+0 + -0 is +0), so the window
// sums run unchecked over a -0.0f-padded plane; and backward gathers
// instead of scattering, each input element adding its windows' shares
// in ascending (OH, OW) order, the order a scatter over outputs would
// deliver them.

void Pool2D::forward(const std::vector<const Tensor *> &Inputs, Tensor &Out,
                     LayerScratch &Scratch, bool Training) const {
  (void)Training;
  const Tensor &In = *Inputs[0];
  const int Planes = In.shape()[0] * In.shape()[1];
  const int Height = In.shape()[2];
  const int Width = In.shape()[3];
  const int OutH = Out.shape()[2];
  const int OutW = Out.shape()[3];
  const size_t InPlane = static_cast<size_t>(Height) * Width;
  const size_t OutPlane = static_cast<size_t>(OutH) * OutW;
  const float Divisor = static_cast<float>(Window * Window);
  const float *InData = In.data();
  float *OutData = Out.data();

  if (PoolMode == Mode::Average && Stride == 1) {
    const int PaddedW = Width + 2 * Pad;
    std::vector<float> Padded(static_cast<size_t>(Height + 2 * Pad) * PaddedW,
                              -0.0f);
    for (int P = 0; P < Planes; ++P) {
      const float *Plane = InData + P * InPlane;
      for (int H = 0; H < Height; ++H)
        std::copy(Plane + static_cast<size_t>(H) * Width,
                  Plane + static_cast<size_t>(H + 1) * Width,
                  Padded.data() + static_cast<size_t>(H + Pad) * PaddedW +
                      Pad);
      for (int OH = 0; OH < OutH; ++OH) {
        float *OutRow = OutData + P * OutPlane + static_cast<size_t>(OH) * OutW;
        std::fill(OutRow, OutRow + OutW, 0.0f);
        for (int KH = 0; KH < Window; ++KH) {
          const float *Row =
              Padded.data() + static_cast<size_t>(OH + KH) * PaddedW;
          for (int KW = 0; KW < Window; ++KW)
            for (int OW = 0; OW < OutW; ++OW)
              OutRow[OW] += Row[OW + KW];
        }
        for (int OW = 0; OW < OutW; ++OW)
          OutRow[OW] /= Divisor;
      }
    }
    return;
  }

  // For max pooling remember the winning input offset for backward.
  float *ArgMax = nullptr;
  if (PoolMode == Mode::Max) {
    if (Scratch.Buffers.empty())
      Scratch.Buffers.emplace_back();
    if (Scratch.Buffers[0].shape() != Out.shape())
      Scratch.Buffers[0] = Tensor(Out.shape());
    ArgMax = Scratch.Buffers[0].data();
  }

  std::vector<int> ColLo(OutW), ColHi(OutW);
  for (int OW = 0; OW < OutW; ++OW)
    windowTaps(OW * Stride - Pad, Window, Width, ColLo[OW], ColHi[OW]);
  size_t OutIndex = 0;
  for (int P = 0; P < Planes; ++P) {
    const float *Plane = InData + P * InPlane;
    for (int OH = 0; OH < OutH; ++OH) {
      const int H0 = OH * Stride - Pad;
      int RowLo, RowHi;
      windowTaps(H0, Window, Height, RowLo, RowHi);
      for (int OW = 0; OW < OutW; ++OW, ++OutIndex) {
        const int W0 = OW * Stride - Pad;
        if (ArgMax) {
          float Best = -3.4e38f;
          int BestOffset = -1;
          for (int KH = RowLo; KH < RowHi; ++KH) {
            const int RowOffset = (H0 + KH) * Width + W0;
            for (int KW = ColLo[OW]; KW < ColHi[OW]; ++KW) {
              const int Offset = RowOffset + KW;
              if (Plane[Offset] > Best) {
                Best = Plane[Offset];
                BestOffset = Offset;
              }
            }
          }
          assert(BestOffset >= 0 && "empty pooling window");
          OutData[OutIndex] = Best;
          ArgMax[OutIndex] = static_cast<float>(BestOffset);
        } else {
          float Total = 0.0f;
          for (int KH = RowLo; KH < RowHi; ++KH) {
            const int RowOffset = (H0 + KH) * Width + W0;
            for (int KW = ColLo[OW]; KW < ColHi[OW]; ++KW)
              Total += Plane[RowOffset + KW];
          }
          OutData[OutIndex] = Total / Divisor;
        }
      }
    }
  }
}

void Pool2D::backward(const std::vector<const Tensor *> &Inputs,
                      const Tensor &Out, const Tensor &GradOut,
                      LayerScratch &Scratch,
                      const std::vector<Tensor *> &GradInputs) {
  Tensor *GradIn = GradInputs[0];
  if (!GradIn)
    return;
  const Tensor &In = *Inputs[0];
  const int Planes = In.shape()[0] * In.shape()[1];
  const int Height = In.shape()[2];
  const int Width = In.shape()[3];
  const int OutH = Out.shape()[2];
  const int OutW = Out.shape()[3];
  const size_t InPlane = static_cast<size_t>(Height) * Width;
  const size_t OutPlane = static_cast<size_t>(OutH) * OutW;
  const float Divisor = static_cast<float>(Window * Window);
  const float *GradOutData = GradOut.data();
  float *GradInData = GradIn->data();

  if (PoolMode == Mode::Max) {
    const float *ArgMax = Scratch.Buffers[0].data();
    for (int P = 0; P < Planes; ++P) {
      float *GradPlane = GradInData + P * InPlane;
      for (size_t I = P * OutPlane, End = I + OutPlane; I < End; ++I)
        GradPlane[static_cast<int>(ArgMax[I])] += GradOutData[I];
    }
    return;
  }

  if (Stride == 1) {
    // Shares sit in a plane padded by Window - 1 on every side with
    // -0.0f, so input (IH, IW) finds the share of window (OH, OW) =
    // (IH + Pad - Reach + DH, IW + Pad - Reach + DW) at padded
    // coordinates (IH + Pad + DH, IW + Pad + DW) without a bounds check.
    const int Reach = Window - 1;
    const int SharesW = OutW + 2 * Reach;
    std::vector<float> Shares(static_cast<size_t>(OutH + 2 * Reach) * SharesW,
                              -0.0f);
    for (int P = 0; P < Planes; ++P) {
      const float *GradOutPlane = GradOutData + P * OutPlane;
      for (int OH = 0; OH < OutH; ++OH) {
        float *ShareRow =
            Shares.data() + static_cast<size_t>(OH + Reach) * SharesW + Reach;
        for (int OW = 0; OW < OutW; ++OW)
          ShareRow[OW] = GradOutPlane[OH * OutW + OW] / Divisor;
      }
      float *GradPlane = GradInData + P * InPlane;
      for (int IH = 0; IH < Height; ++IH) {
        float *GradRow = GradPlane + static_cast<size_t>(IH) * Width;
        for (int DH = 0; DH < Window; ++DH) {
          const float *ShareRow =
              Shares.data() + static_cast<size_t>(IH + Pad + DH) * SharesW +
              Pad;
          for (int DW = 0; DW < Window; ++DW)
            for (int IW = 0; IW < Width; ++IW)
              GradRow[IW] += ShareRow[IW + DW];
        }
      }
    }
    return;
  }

  std::vector<int> ColLo(OutW), ColHi(OutW);
  for (int OW = 0; OW < OutW; ++OW)
    windowTaps(OW * Stride - Pad, Window, Width, ColLo[OW], ColHi[OW]);
  size_t OutIndex = 0;
  for (int P = 0; P < Planes; ++P) {
    float *GradPlane = GradInData + P * InPlane;
    for (int OH = 0; OH < OutH; ++OH) {
      const int H0 = OH * Stride - Pad;
      int RowLo, RowHi;
      windowTaps(H0, Window, Height, RowLo, RowHi);
      for (int OW = 0; OW < OutW; ++OW, ++OutIndex) {
        const float Share = GradOutData[OutIndex] / Divisor;
        const int W0 = OW * Stride - Pad;
        for (int KH = RowLo; KH < RowHi; ++KH) {
          const int RowOffset = (H0 + KH) * Width + W0;
          for (int KW = ColLo[OW]; KW < ColHi[OW]; ++KW)
            GradPlane[RowOffset + KW] += Share;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// GlobalAvgPool
//===----------------------------------------------------------------------===//

Shape GlobalAvgPool::outputShape(const std::vector<Shape> &InputShapes) const {
  assert(InputShapes.size() == 1 && InputShapes[0].rank() == 4 &&
         "global pooling expects one NCHW input");
  return Shape{InputShapes[0][0], InputShapes[0][1], 1, 1};
}

void GlobalAvgPool::forward(const std::vector<const Tensor *> &Inputs,
                            Tensor &Out, LayerScratch &Scratch,
                            bool Training) const {
  (void)Scratch;
  (void)Training;
  const Tensor &In = *Inputs[0];
  const int Planes = In.shape()[0] * In.shape()[1];
  const int Spatial = In.shape()[2] * In.shape()[3];
  for (int P = 0; P < Planes; ++P) {
    const float *Plane = In.data() + static_cast<size_t>(P) * Spatial;
    float Total = 0.0f;
    for (int I = 0; I < Spatial; ++I)
      Total += Plane[I];
    Out[P] = Total / static_cast<float>(Spatial);
  }
}

void GlobalAvgPool::backward(const std::vector<const Tensor *> &Inputs,
                             const Tensor &Out, const Tensor &GradOut,
                             LayerScratch &Scratch,
                             const std::vector<Tensor *> &GradInputs) {
  (void)Out;
  (void)Scratch;
  Tensor *GradIn = GradInputs[0];
  if (!GradIn)
    return;
  const Tensor &In = *Inputs[0];
  const int Planes = In.shape()[0] * In.shape()[1];
  const int Spatial = In.shape()[2] * In.shape()[3];
  for (int P = 0; P < Planes; ++P) {
    const float Share = GradOut[P] / static_cast<float>(Spatial);
    float *Plane = GradIn->data() + static_cast<size_t>(P) * Spatial;
    for (int I = 0; I < Spatial; ++I)
      Plane[I] += Share;
  }
}

//===----------------------------------------------------------------------===//
// Dense
//===----------------------------------------------------------------------===//

Dense::Dense(int InFeatures, int OutFeatures)
    : InFeatures(InFeatures), OutFeatures(OutFeatures),
      Weight(Shape{OutFeatures, InFeatures}), Bias(Shape{OutFeatures}) {
  assert(InFeatures > 0 && OutFeatures > 0 && "invalid dense extents");
}

Shape Dense::outputShape(const std::vector<Shape> &InputShapes) const {
  assert(InputShapes.size() == 1 && "dense expects one input");
  const Shape &In = InputShapes[0];
  const size_t Features = In.elementCount() / In[0];
  assert(Features == static_cast<size_t>(InFeatures) &&
         "dense input feature mismatch");
  (void)Features;
  return Shape{In[0], OutFeatures};
}

void Dense::forward(const std::vector<const Tensor *> &Inputs, Tensor &Out,
                    LayerScratch &Scratch, bool Training) const {
  (void)Scratch;
  (void)Training;
  const Tensor &In = *Inputs[0];
  const int Batch = In.shape()[0];
  gemmTransposeB(In.data(), Weight.Value.data(), Out.data(), Batch,
                 InFeatures, OutFeatures);
  for (int N = 0; N < Batch; ++N)
    axpy(1.0f, Bias.Value.data(),
         Out.data() + static_cast<size_t>(N) * OutFeatures, OutFeatures);
}

void Dense::backward(const std::vector<const Tensor *> &Inputs,
                     const Tensor &Out, const Tensor &GradOut,
                     LayerScratch &Scratch,
                     const std::vector<Tensor *> &GradInputs) {
  (void)Out;
  (void)Scratch;
  const Tensor &In = *Inputs[0];
  const int Batch = In.shape()[0];
  // dW += dOut^T * X.
  gemmTransposeA(GradOut.data(), In.data(), Weight.Grad.data(), OutFeatures,
                 Batch, InFeatures, /*Accumulate=*/true);
  for (int N = 0; N < Batch; ++N)
    axpy(1.0f, GradOut.data() + static_cast<size_t>(N) * OutFeatures,
         Bias.Grad.data(), OutFeatures);
  Tensor *GradIn = GradInputs[0];
  if (!GradIn)
    return;
  // dX += dOut * W.
  gemm(GradOut.data(), Weight.Value.data(), GradIn->data(), Batch,
       OutFeatures, InFeatures, /*Accumulate=*/true);
}

std::vector<Param *> Dense::params() { return {&Weight, &Bias}; }

void Dense::initParams(Rng &Generator) {
  const float StdDev = std::sqrt(2.0f / static_cast<float>(InFeatures));
  for (size_t I = 0; I < Weight.Value.size(); ++I)
    Weight.Value[I] = StdDev * Generator.nextGaussian();
  Bias.Value.zero();
}

//===----------------------------------------------------------------------===//
// Concat
//===----------------------------------------------------------------------===//

Shape Concat::outputShape(const std::vector<Shape> &InputShapes) const {
  assert(!InputShapes.empty() && "concat needs at least one input");
  const Shape &First = InputShapes[0];
  assert(First.rank() == 4 && "concat expects NCHW inputs");
  int Channels = 0;
  for (const Shape &In : InputShapes) {
    assert(In[0] == First[0] && In[2] == First[2] && In[3] == First[3] &&
           "concat inputs must agree on batch and spatial dims");
    Channels += In[1];
  }
  return Shape{First[0], Channels, First[2], First[3]};
}

void Concat::forward(const std::vector<const Tensor *> &Inputs, Tensor &Out,
                     LayerScratch &Scratch, bool Training) const {
  (void)Scratch;
  (void)Training;
  const int Batch = Out.shape()[0];
  const int Spatial = Out.shape()[2] * Out.shape()[3];
  const size_t OutSample = static_cast<size_t>(Out.shape()[1]) * Spatial;
  for (int N = 0; N < Batch; ++N) {
    size_t Offset = 0;
    for (const Tensor *In : Inputs) {
      const size_t Chunk = static_cast<size_t>(In->shape()[1]) * Spatial;
      std::memcpy(Out.data() + N * OutSample + Offset,
                  In->data() + N * Chunk, sizeof(float) * Chunk);
      Offset += Chunk;
    }
  }
}

void Concat::backward(const std::vector<const Tensor *> &Inputs,
                      const Tensor &Out, const Tensor &GradOut,
                      LayerScratch &Scratch,
                      const std::vector<Tensor *> &GradInputs) {
  (void)Scratch;
  const int Batch = Out.shape()[0];
  const int Spatial = Out.shape()[2] * Out.shape()[3];
  const size_t OutSample = static_cast<size_t>(Out.shape()[1]) * Spatial;
  for (int N = 0; N < Batch; ++N) {
    size_t Offset = 0;
    for (size_t Slot = 0; Slot < Inputs.size(); ++Slot) {
      const size_t Chunk =
          static_cast<size_t>(Inputs[Slot]->shape()[1]) * Spatial;
      if (Tensor *GradIn = GradInputs[Slot])
        axpy(1.0f, GradOut.data() + N * OutSample + Offset,
             GradIn->data() + N * Chunk, Chunk);
      Offset += Chunk;
    }
  }
}

//===----------------------------------------------------------------------===//
// Dropout
//===----------------------------------------------------------------------===//

Dropout::Dropout(float DropRate, uint64_t Seed)
    : DropRate(DropRate), Seed(Seed) {
  assert(DropRate >= 0.0f && DropRate < 1.0f && "drop rate out of [0, 1)");
}

Shape Dropout::outputShape(const std::vector<Shape> &InputShapes) const {
  assert(InputShapes.size() == 1 && "dropout expects one input");
  return InputShapes[0];
}

void Dropout::forward(const std::vector<const Tensor *> &Inputs, Tensor &Out,
                      LayerScratch &Scratch, bool Training) const {
  const Tensor &In = *Inputs[0];
  if (!Training || DropRate == 0.0f) {
    std::memcpy(Out.data(), In.data(), sizeof(float) * In.size());
    return;
  }
  // Scratch buffer 0 stores the mask for backward. The mask stream comes
  // from the context-local generator, lazily seeded from the layer's
  // seed: each ExecContext replays the same deterministic stream the old
  // layer-owned generator produced, without cross-context races.
  if (!Scratch.Generator)
    Scratch.Generator = std::make_unique<Rng>(Seed);
  if (Scratch.Buffers.empty())
    Scratch.Buffers.emplace_back();
  Tensor &Mask = Scratch.Buffers[0];
  if (Mask.shape() != In.shape())
    Mask = Tensor(In.shape());
  const float KeepScale = 1.0f / (1.0f - DropRate);
  for (size_t I = 0; I < In.size(); ++I) {
    const bool Keep = !Scratch.Generator->nextBernoulli(DropRate);
    Mask[I] = Keep ? KeepScale : 0.0f;
    Out[I] = In[I] * Mask[I];
  }
}

void Dropout::backward(const std::vector<const Tensor *> &Inputs,
                       const Tensor &Out, const Tensor &GradOut,
                       LayerScratch &Scratch,
                       const std::vector<Tensor *> &GradInputs) {
  (void)Inputs;
  (void)Out;
  Tensor *GradIn = GradInputs[0];
  if (!GradIn)
    return;
  // The mask is present only when the last forward ran in training mode.
  const bool Masked =
      !Scratch.Buffers.empty() &&
      Scratch.Buffers[0].shape() == GradOut.shape() && DropRate > 0.0f;
  for (size_t I = 0; I < GradOut.size(); ++I)
    (*GradIn)[I] += Masked ? GradOut[I] * Scratch.Buffers[0][I]
                           : GradOut[I];
}

//===----------------------------------------------------------------------===//
// Add
//===----------------------------------------------------------------------===//

Shape Add::outputShape(const std::vector<Shape> &InputShapes) const {
  assert(InputShapes.size() >= 2 && "add needs at least two inputs");
  for ([[maybe_unused]] const Shape &In : InputShapes)
    assert(In == InputShapes[0] && "add inputs must have equal shapes");
  return InputShapes[0];
}

void Add::forward(const std::vector<const Tensor *> &Inputs, Tensor &Out,
                  LayerScratch &Scratch, bool Training) const {
  (void)Scratch;
  (void)Training;
  std::memcpy(Out.data(), Inputs[0]->data(), sizeof(float) * Out.size());
  for (size_t Slot = 1; Slot < Inputs.size(); ++Slot)
    axpy(1.0f, Inputs[Slot]->data(), Out.data(), Out.size());
}

void Add::backward(const std::vector<const Tensor *> &Inputs,
                   const Tensor &Out, const Tensor &GradOut,
                   LayerScratch &Scratch,
                   const std::vector<Tensor *> &GradInputs) {
  (void)Inputs;
  (void)Out;
  (void)Scratch;
  for (Tensor *GradIn : GradInputs)
    if (GradIn)
      axpy(1.0f, GradOut.data(), GradIn->data(), GradOut.size());
}
