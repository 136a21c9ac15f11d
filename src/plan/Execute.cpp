//===- plan/Execute.cpp - Plan execution -----------------------------------===//
//
// The PlanContext interpreter-free execution loop: every step reads and
// writes raw arena storage at pre-computed offsets, on the calling
// thread. The per-step math mirrors the eval-mode Layer implementations
// operation for operation, so a plan without BatchNorm folding
// reproduces the interpreter's logits bit for bit.
//
//===----------------------------------------------------------------------===//

#include "src/plan/Plan.h"

#include "src/tensor/Ops.h"

#include <cassert>
#include <cstring>

using namespace wootz;

namespace {

/// Arena base of \p Buf for a batch of \p N samples. Buffers are laid
/// out [N, C, H, W]; per-sample offsets scale with the batch.
float *bufferBase(float *Arena, const PlanBuffer &Buf, int N) {
  return Arena + Buf.ArenaOffset * static_cast<size_t>(N);
}

void reluInPlace(float *Values, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    Values[I] = Values[I] > 0.0f ? Values[I] : 0.0f;
}

void execConv(const PlanStep &Step, const PlanBuffer &In,
              const PlanBuffer &Out, float *Arena, int N) {
  const float *InBase = bufferBase(Arena, In, N);
  float *OutBase = bufferBase(Arena, Out, N);
  const float *BiasPtr = Step.HasBias ? Step.Bias.data() : nullptr;

  // The whole batched conv GEMM goes through the fused im2col+pack
  // engine: B panels come straight from the activation image, A panels
  // are the step's freeze-time pre-packed weights, and the fused-ReLU
  // epilogue rides each sample. This is the same code path as
  // the interpreter's eval forward, so plan and interpreter logits stay
  // bit-identical (modulo BatchNorm folding).
  convForwardFused(InBase, N, In.Height, In.Width, Step.Geometry,
                   &Step.Packed, /*Weights=*/nullptr, BiasPtr,
                   Step.FusedReLU, OutBase);
}

void execScaleShift(const PlanStep &Step, const PlanBuffer &In,
                    const PlanBuffer &Out, float *Arena, int N) {
  const int Spatial = In.Height * In.Width;
  const float *InBase = bufferBase(Arena, In, N);
  float *OutBase = bufferBase(Arena, Out, N);
  for (int S = 0; S < N; ++S) {
    for (int C = 0; C < In.Channels; ++C) {
      const size_t Offset = S * In.PerSampleElems +
                            static_cast<size_t>(C) * Spatial;
      const float Scale = Step.Weight[C];
      const float Shift = Step.Bias[C];
      const float *InPlane = InBase + Offset;
      float *OutPlane = OutBase + S * Out.PerSampleElems +
                        static_cast<size_t>(C) * Spatial;
      for (int I = 0; I < Spatial; ++I) {
        const float V = InPlane[I] * Scale + Shift;
        OutPlane[I] = Step.FusedReLU && V < 0.0f ? 0.0f : V;
      }
    }
  }
}

void execPool(const PlanStep &Step, const PlanBuffer &In,
              const PlanBuffer &Out, float *Arena, int N) {
  const float *InBase = bufferBase(Arena, In, N);
  float *OutBase = bufferBase(Arena, Out, N);
  const bool Max = Step.Kind == PlanStep::Op::MaxPool;
  size_t OutIndex = 0;
  for (int S = 0; S < N; ++S) {
    for (int C = 0; C < In.Channels; ++C) {
      const float *Plane =
          InBase + S * In.PerSampleElems +
          static_cast<size_t>(C) * In.Height * In.Width;
      for (int OH = 0; OH < Out.Height; ++OH) {
        for (int OW = 0; OW < Out.Width; ++OW, ++OutIndex) {
          const int H0 = OH * Step.Stride - Step.Pad;
          const int W0 = OW * Step.Stride - Step.Pad;
          if (Max) {
            float Best = -3.4e38f;
            for (int KH = 0; KH < Step.Window; ++KH) {
              const int IH = H0 + KH;
              if (IH < 0 || IH >= In.Height)
                continue;
              for (int KW = 0; KW < Step.Window; ++KW) {
                const int IW = W0 + KW;
                if (IW < 0 || IW >= In.Width)
                  continue;
                Best = std::max(Best, Plane[IH * In.Width + IW]);
              }
            }
            OutBase[OutIndex] = Best;
          } else {
            float Total = 0.0f;
            for (int KH = 0; KH < Step.Window; ++KH) {
              const int IH = H0 + KH;
              if (IH < 0 || IH >= In.Height)
                continue;
              for (int KW = 0; KW < Step.Window; ++KW) {
                const int IW = W0 + KW;
                if (IW >= 0 && IW < In.Width)
                  Total += Plane[IH * In.Width + IW];
              }
            }
            OutBase[OutIndex] =
                Total / static_cast<float>(Step.Window * Step.Window);
          }
        }
      }
    }
  }
}

void execGlobalAvgPool(const PlanBuffer &In, const PlanBuffer &Out,
                       float *Arena, int N) {
  const int Spatial = In.Height * In.Width;
  const float *InBase = bufferBase(Arena, In, N);
  float *OutBase = bufferBase(Arena, Out, N);
  const size_t Planes = static_cast<size_t>(N) * In.Channels;
  for (size_t P = 0; P < Planes; ++P) {
    const float *Plane = InBase + P * Spatial;
    float Total = 0.0f;
    for (int I = 0; I < Spatial; ++I)
      Total += Plane[I];
    OutBase[P] = Total / static_cast<float>(Spatial);
  }
}

void execDense(const PlanStep &Step, const PlanBuffer &In,
               const PlanBuffer &Out, float *Arena, int N) {
  const float *InBase = bufferBase(Arena, In, N);
  float *OutBase = bufferBase(Arena, Out, N);
  const int K = Step.InFeatures;
  const int F = Step.OutFeatures;
  if (gemmUsesBlockedEngine(N, K, F)) {
    detail::blockedGemmPacked(nullptr, InBase, static_cast<size_t>(K), 1,
                              &Step.Packed, nullptr, 0, 0, OutBase, N, K, F,
                              /*Accumulate=*/false, /*RowBias=*/nullptr);
  } else {
    gemmTransposeBReference(InBase, Step.Weight.data(), OutBase, N, K, F,
                            /*Accumulate=*/false);
  }
  for (int S = 0; S < N; ++S)
    axpy(1.0f, Step.Bias.data(), OutBase + static_cast<size_t>(S) * F, F);
  if (Step.FusedReLU)
    reluInPlace(OutBase, static_cast<size_t>(N) * F);
}

} // namespace

const Tensor &PlanContext::run(const Tensor &Input) {
  assert(Bound && "PlanContext is not bound to a plan");
  const ExecPlan &P = *Bound;
  assert(Input.shape().rank() == 4 && "plan input must be NCHW");
  assert(Input.shape()[1] == P.inputChannels() &&
         Input.shape()[2] == P.inputHeight() &&
         Input.shape()[3] == P.inputWidth() &&
         "input shape does not match the plan's specialization");
  const int N = Input.shape()[0];

  float *ArenaBase = Arena.ensure(P.arenaPerSample() * N);
  const std::vector<PlanBuffer> &Bufs = P.buffers();
  std::memcpy(bufferBase(ArenaBase, Bufs[0], N), Input.data(),
              sizeof(float) * Input.size());

  for (const PlanStep &Step : P.steps()) {
    const PlanBuffer &Out = Bufs[Step.Output];
    switch (Step.Kind) {
    case PlanStep::Op::Conv:
      execConv(Step, Bufs[Step.Inputs[0]], Out, ArenaBase, N);
      break;
    case PlanStep::Op::ScaleShift:
      execScaleShift(Step, Bufs[Step.Inputs[0]], Out, ArenaBase, N);
      break;
    case PlanStep::Op::ReLU: {
      const PlanBuffer &In = Bufs[Step.Inputs[0]];
      const float *Src = bufferBase(ArenaBase, In, N);
      float *Dst = bufferBase(ArenaBase, Out, N);
      const size_t Count = In.PerSampleElems * static_cast<size_t>(N);
      for (size_t I = 0; I < Count; ++I)
        Dst[I] = Src[I] > 0.0f ? Src[I] : 0.0f;
      break;
    }
    case PlanStep::Op::MaxPool:
    case PlanStep::Op::AvgPool:
      execPool(Step, Bufs[Step.Inputs[0]], Out, ArenaBase, N);
      break;
    case PlanStep::Op::GlobalAvgPool:
      execGlobalAvgPool(Bufs[Step.Inputs[0]], Out, ArenaBase, N);
      break;
    case PlanStep::Op::Dense:
      execDense(Step, Bufs[Step.Inputs[0]], Out, ArenaBase, N);
      break;
    case PlanStep::Op::Concat: {
      float *OutBase = bufferBase(ArenaBase, Out, N);
      for (int S = 0; S < N; ++S) {
        size_t Offset = 0;
        for (int InIdx : Step.Inputs) {
          const PlanBuffer &In = Bufs[InIdx];
          std::memcpy(OutBase + S * Out.PerSampleElems + Offset,
                      bufferBase(ArenaBase, In, N) + S * In.PerSampleElems,
                      sizeof(float) * In.PerSampleElems);
          Offset += In.PerSampleElems;
        }
      }
      break;
    }
    case PlanStep::Op::Add: {
      float *OutBase = bufferBase(ArenaBase, Out, N);
      const size_t Count = Out.PerSampleElems * static_cast<size_t>(N);
      std::memcpy(OutBase,
                  bufferBase(ArenaBase, Bufs[Step.Inputs[0]], N),
                  sizeof(float) * Count);
      for (size_t Slot = 1; Slot < Step.Inputs.size(); ++Slot)
        axpy(1.0f, bufferBase(ArenaBase, Bufs[Step.Inputs[Slot]], N),
             OutBase, Count);
      if (Step.FusedReLU)
        reluInPlace(OutBase, Count);
      break;
    }
    }
  }

  // Materialize the output activation. Dense outputs are rank-2
  // [N, features], everything else NCHW, matching the interpreter.
  const PlanBuffer &OutBuf = Bufs[P.outputBuffer()];
  const bool Rank2 =
      OutBuf.DefStep >= 0 &&
      P.steps()[OutBuf.DefStep].Kind == PlanStep::Op::Dense;
  const Shape OutShape =
      Rank2 ? Shape{N, OutBuf.Channels}
            : Shape{N, OutBuf.Channels, OutBuf.Height, OutBuf.Width};
  if (OutputTensor.shape() != OutShape)
    OutputTensor = Tensor(OutShape);
  std::memcpy(OutputTensor.data(), bufferBase(ArenaBase, OutBuf, N),
              sizeof(float) * OutputTensor.size());
  return OutputTensor;
}
