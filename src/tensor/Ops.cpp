//===- tensor/Ops.cpp ------------------------------------------------------===//

#include "src/tensor/Ops.h"

#include "src/tensor/Kernels.h"

#include <algorithm>
#include <cstring>

using namespace wootz;

/// Below this flop volume the blocked engine's panel packing costs more
/// than its micro-kernel saves; the reference loops win.
bool wootz::gemmUsesBlockedEngine(int M, int K, int N) {
  return static_cast<size_t>(M) * K * N >= 16384;
}

static bool useBlockedGemm(int M, int K, int N) {
  return gemmUsesBlockedEngine(M, K, N);
}

void wootz::gemmReference(const float *A, const float *B, float *C, int M,
                          int K, int N, bool Accumulate) {
  if (!Accumulate)
    std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);
  // i-k-j loop order: the inner loop streams over B and C rows, which
  // vectorizes well and avoids strided access.
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    float *CRow = C + static_cast<size_t>(I) * N;
    for (int L = 0; L < K; ++L) {
      const float AVal = ARow[L];
      if (AVal == 0.0f)
        continue;
      const float *BRow = B + static_cast<size_t>(L) * N;
      for (int J = 0; J < N; ++J)
        CRow[J] += AVal * BRow[J];
    }
  }
}

void wootz::gemmTransposeAReference(const float *A, const float *B, float *C,
                                    int M, int K, int N, bool Accumulate) {
  if (!Accumulate)
    std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);
  for (int L = 0; L < K; ++L) {
    const float *ARow = A + static_cast<size_t>(L) * M;
    const float *BRow = B + static_cast<size_t>(L) * N;
    for (int I = 0; I < M; ++I) {
      const float AVal = ARow[I];
      if (AVal == 0.0f)
        continue;
      float *CRow = C + static_cast<size_t>(I) * N;
      for (int J = 0; J < N; ++J)
        CRow[J] += AVal * BRow[J];
    }
  }
}

void wootz::gemmTransposeBReference(const float *A, const float *B, float *C,
                                    int M, int K, int N, bool Accumulate) {
  if (!Accumulate)
    std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    float *CRow = C + static_cast<size_t>(I) * N;
    for (int J = 0; J < N; ++J) {
      const float *BRow = B + static_cast<size_t>(J) * K;
      float Total = 0.0f;
      for (int L = 0; L < K; ++L)
        Total += ARow[L] * BRow[L];
      CRow[J] += Total;
    }
  }
}

void wootz::gemm(const float *A, const float *B, float *C, int M, int K,
                 int N, bool Accumulate) {
  if (useBlockedGemm(M, K, N)) {
    detail::blockedGemm(A, static_cast<size_t>(K), 1, B,
                        static_cast<size_t>(N), 1, C, M, K, N, Accumulate,
                        /*RowBias=*/nullptr);
    return;
  }
  gemmReference(A, B, C, M, K, N, Accumulate);
}

void wootz::gemmTransposeA(const float *A, const float *B, float *C, int M,
                           int K, int N, bool Accumulate) {
  if (useBlockedGemm(M, K, N)) {
    // A is stored KxM: A^T(i, k) = A[k * M + i].
    detail::blockedGemm(A, 1, static_cast<size_t>(M), B,
                        static_cast<size_t>(N), 1, C, M, K, N, Accumulate,
                        /*RowBias=*/nullptr);
    return;
  }
  gemmTransposeAReference(A, B, C, M, K, N, Accumulate);
}

void wootz::gemmTransposeB(const float *A, const float *B, float *C, int M,
                           int K, int N, bool Accumulate) {
  if (useBlockedGemm(M, K, N)) {
    // B is stored NxK: B^T(k, j) = B[j * K + k].
    detail::blockedGemm(A, static_cast<size_t>(K), 1, B, 1,
                        static_cast<size_t>(K), C, M, K, N, Accumulate,
                        /*RowBias=*/nullptr);
    return;
  }
  gemmTransposeBReference(A, B, C, M, K, N, Accumulate);
}

void wootz::gemmBias(const float *A, const float *B, const float *Bias,
                     float *C, int M, int K, int N) {
  if (useBlockedGemm(M, K, N)) {
    detail::blockedGemm(A, static_cast<size_t>(K), 1, B,
                        static_cast<size_t>(N), 1, C, M, K, N,
                        /*Accumulate=*/false, Bias);
    return;
  }
  gemmReference(A, B, C, M, K, N, /*Accumulate=*/false);
  for (int I = 0; I < M; ++I) {
    float *CRow = C + static_cast<size_t>(I) * N;
    const float BiasVal = Bias[I];
    for (int J = 0; J < N; ++J)
      CRow[J] += BiasVal;
  }
}

namespace {

/// The output positions [Lo, Hi) whose tap Pos * Stride + Offset lands
/// inside [0, Extent), clamped to [0, OutExtent). Outside that range the
/// tap reads padding.
void validTaps(int Offset, int Stride, int Extent, int OutExtent, int &Lo,
               int &Hi) {
  Lo = Offset >= 0 ? 0 : (Stride - 1 - Offset) / Stride;
  Hi = Extent - Offset <= 0 ? 0 : (Extent - Offset + Stride - 1) / Stride;
  Lo = std::min(Lo, OutExtent);
  Hi = std::max(Lo, std::min(Hi, OutExtent));
}

} // namespace

// Both transforms walk the (C, KH, KW, OH) rows of the column matrix.
// A kernel column KW reads the same valid output-column range [Lo, Hi)
// on every row, so the range is worked out once per KW; inside it the
// loops copy or add straight through (unit stride vectorizes), outside
// it they zero-fill or skip. Every element is written or accumulated in
// per-element loop order, so results are bit-identical to per-element
// bounds-checked loops (KernelGatherTest keeps them as oracles).

void wootz::im2col(const float *Image, int Channels, int Height, int Width,
                   const ConvGeometry &Geometry, float *Columns) {
  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const int Kernel = Geometry.KernelSize;
  const int Stride = Geometry.Stride;
  float *Out = Columns;
  for (int C = 0; C < Channels; ++C) {
    const float *Plane = Image + static_cast<size_t>(C) * Height * Width;
    for (int KH = 0; KH < Kernel; ++KH) {
      for (int KW = 0; KW < Kernel; ++KW) {
        const int Offset = KW - Geometry.Pad;
        int Lo, Hi;
        validTaps(Offset, Stride, Width, OutW, Lo, Hi);
        for (int OH = 0; OH < OutH; ++OH, Out += OutW) {
          const int IH = OH * Stride - Geometry.Pad + KH;
          if (IH < 0 || IH >= Height) {
            std::fill(Out, Out + OutW, 0.0f);
            continue;
          }
          const float *Row = Plane + static_cast<size_t>(IH) * Width;
          std::fill(Out, Out + Lo, 0.0f);
          if (Stride == 1) {
            const float *Src = Row + (Lo + Offset);
            for (int J = 0; J < Hi - Lo; ++J)
              Out[Lo + J] = Src[J];
          } else {
            for (int OW = Lo; OW < Hi; ++OW)
              Out[OW] = Row[OW * Stride + Offset];
          }
          std::fill(Out + Hi, Out + OutW, 0.0f);
        }
      }
    }
  }
}

void wootz::col2im(const float *Columns, int Channels, int Height, int Width,
                   const ConvGeometry &Geometry, float *Image) {
  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const int Kernel = Geometry.KernelSize;
  const int Stride = Geometry.Stride;
  const float *In = Columns;
  for (int C = 0; C < Channels; ++C) {
    float *Plane = Image + static_cast<size_t>(C) * Height * Width;
    for (int KH = 0; KH < Kernel; ++KH) {
      for (int KW = 0; KW < Kernel; ++KW) {
        const int Offset = KW - Geometry.Pad;
        int Lo, Hi;
        validTaps(Offset, Stride, Width, OutW, Lo, Hi);
        for (int OH = 0; OH < OutH; ++OH, In += OutW) {
          const int IH = OH * Stride - Geometry.Pad + KH;
          if (IH < 0 || IH >= Height)
            continue;
          float *Row = Plane + static_cast<size_t>(IH) * Width;
          if (Stride == 1) {
            float *Dst = Row + (Lo + Offset);
            for (int J = 0; J < Hi - Lo; ++J)
              Dst[J] += In[Lo + J];
          } else {
            for (int OW = Lo; OW < Hi; ++OW)
              Row[OW * Stride + Offset] += In[OW];
          }
        }
      }
    }
  }
}

void wootz::axpy(float Scale, const float *In, float *Out, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    Out[I] += Scale * In[I];
}

void wootz::scale(float Scale, float *Out, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    Out[I] *= Scale;
}

int wootz::argmax(const float *Values, int Count) {
  assert(Count > 0 && "argmax over an empty range");
  int Best = 0;
  for (int I = 1; I < Count; ++I)
    if (Values[I] > Values[Best])
      Best = I;
  return Best;
}
