//===- tensor/Kernels.cpp --------------------------------------------------===//
//
// The blocked GEMM engine. The GEMM follows the classic GotoBLAS/BLIS
// decomposition: loop over NC-wide column blocks of C, KC-deep rank-k
// updates, and MC-tall row panels; the operand slices are packed into
// contiguous aligned panels so the innermost MR x NR micro-kernel runs
// on unit-stride data the compiler can keep in vector registers.
//
// Convolution rides the same engine through convForwardFused(): the B
// operand (the im2col matrix) is never materialized — packConvColsB()
// computes each KC x NR panel directly from the image with stride
// arithmetic, so the only column-shaped traffic is the packed panel the
// GEMM needed anyway.
//
// Everything here runs on the calling thread; concurrent callers keep
// their pack panels in their own thread-local KernelScratch.
//
//===----------------------------------------------------------------------===//

#include "src/tensor/Kernels.h"

#include <algorithm>
#include <cassert>

using namespace wootz;

KernelScratch &KernelScratch::forCurrentThread() {
  static thread_local KernelScratch Instance;
  return Instance;
}

//===----------------------------------------------------------------------===//
// Blocked GEMM
//===----------------------------------------------------------------------===//

namespace {

// Register tile (micro-kernel) and cache-block extents. MR x NR = 6 x 16
// is the classic shape for 256-bit vectors: 12 accumulator registers
// (6 rows x 2 vectors) plus operand registers fit the 16-register file.
// KC x NR of packed B (~16 KB) lives in L1 across a row sweep; MC x KC
// of packed A (~72 KB) targets L2.
constexpr int MR = 6;
constexpr int NR = 16;
constexpr int MC = 72;
constexpr int KC = 256;
constexpr int NC = 1024;

size_t roundUpTo(int Value, int Multiple) {
  return static_cast<size_t>((Value + Multiple - 1) / Multiple) *
         static_cast<size_t>(Multiple);
}

/// Packs a Rows x Depth slice of A into MR-row panels, K-major within a
/// panel (panel element [k * MR + r]); rows past the edge pad with zeros
/// so the micro-kernel never needs a row-edge case.
void packAPanels(const float *A, size_t RowStride, size_t ColStride,
                 int Rows, int Depth, float *Out) {
  for (int Row0 = 0; Row0 < Rows; Row0 += MR) {
    const int Panel = std::min(MR, Rows - Row0);
    for (int K = 0; K < Depth; ++K) {
      const float *Src =
          A + static_cast<size_t>(Row0) * RowStride + K * ColStride;
      int R = 0;
      for (; R < Panel; ++R)
        Out[static_cast<size_t>(K) * MR + R] = Src[R * RowStride];
      for (; R < MR; ++R)
        Out[static_cast<size_t>(K) * MR + R] = 0.0f;
    }
    Out += static_cast<size_t>(Depth) * MR;
  }
}

/// Packs a Depth x Cols slice of B into NR-column panels, K-major within
/// a panel (panel element [k * NR + c]); columns past the edge pad with
/// zeros.
void packBPanels(const float *B, size_t RowStride, size_t ColStride,
                 int Depth, int Cols, float *Out) {
  for (int Col0 = 0; Col0 < Cols; Col0 += NR) {
    const int Panel = std::min(NR, Cols - Col0);
    for (int K = 0; K < Depth; ++K) {
      const float *Src =
          B + static_cast<size_t>(K) * RowStride + Col0 * ColStride;
      int C = 0;
      for (; C < Panel; ++C)
        Out[static_cast<size_t>(K) * NR + C] = Src[C * ColStride];
      for (; C < NR; ++C)
        Out[static_cast<size_t>(K) * NR + C] = 0.0f;
    }
    Out += static_cast<size_t>(Depth) * NR;
  }
}

// The macro-kernel is where all the flops happen, so it alone carries
// per-ISA clones: the binary stays portable (baseline x86-64) while the
// dynamic linker picks an AVX2/FMA or AVX-512 body on capable hosts.
// Microarchitecture *levels* (x86-64-v3/v4) rather than named CPUs: the
// resolver then dispatches on the feature bitset instead of an exact
// CPU-model match, which matters on virtualized hosts reporting generic
// model strings. Clones are disabled under sanitizers (ifunc resolvers
// run before the sanitizer runtime is ready) and on non-GCC/non-x86
// builds.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) &&        \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define WOOTZ_ARCH_CLONES                                                     \
  __attribute__((                                                             \
      target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define WOOTZ_ARCH_CLONES
#endif

/// 8-wide vector lane used to spell the micro-kernel accumulators
/// explicitly. GCC lowers operations on it to the best ISA of whichever
/// clone is being compiled (single ymm ops under v3/v4, xmm pairs under
/// the baseline), which is what finally keeps the MR x NR tile in
/// registers: the scalar triple loop version of the same tile spills to
/// the stack and runs ~20x slower.
typedef float VecLane
    __attribute__((vector_size(32), may_alias, aligned(4)));
constexpr int LanesPerRow = NR / 8;

/// Computes one MBlock x NBlock block of C from packed operand panels.
/// \p LeadingDim is C's row stride. With \p Add false the block is
/// overwritten (first KC slice of a non-accumulating product) and
/// \p RowBias, if non-null, is added once per row; with \p Add true the
/// contribution accumulates and \p RowBias must be null.
WOOTZ_ARCH_CLONES
void macroKernel(int MBlock, int NBlock, int KBlock, const float *APack,
                 const float *BPack, float *C, size_t LeadingDim, bool Add,
                 const float *RowBias) {
  for (int Col0 = 0; Col0 < NBlock; Col0 += NR) {
    const int NCount = std::min(NR, NBlock - Col0);
    const float *BPanel =
        BPack + static_cast<size_t>(Col0 / NR) * KBlock * NR;
    for (int Row0 = 0; Row0 < MBlock; Row0 += MR) {
      const int MCount = std::min(MR, MBlock - Row0);
      const float *APanel =
          APack + static_cast<size_t>(Row0 / MR) * KBlock * MR;
      // The full (zero-padded) MR x NR tile accumulates in MR *
      // LanesPerRow vector registers (12 ymm at the classic 6x16 shape:
      // exactly the register budget that leaves room for the A
      // broadcast and the two B loads); only the valid MCount x NCount
      // region is written back.
      VecLane Acc[MR][LanesPerRow] = {};
      for (int K = 0; K < KBlock; ++K) {
        const float *ARow = APanel + static_cast<size_t>(K) * MR;
        const VecLane *BRow = reinterpret_cast<const VecLane *>(
            BPanel + static_cast<size_t>(K) * NR);
        const VecLane B0 = BRow[0], B1 = BRow[1];
        for (int R = 0; R < MR; ++R) {
          Acc[R][0] += B0 * ARow[R]; // Scalar operand broadcasts.
          Acc[R][1] += B1 * ARow[R];
        }
      }
      float Tile[MR][NR];
      for (int R = 0; R < MR; ++R)
        for (int Lane = 0; Lane < LanesPerRow; ++Lane)
          *reinterpret_cast<VecLane *>(&Tile[R][Lane * 8]) = Acc[R][Lane];
      for (int R = 0; R < MCount; ++R) {
        float *CRow = C + static_cast<size_t>(Row0 + R) * LeadingDim + Col0;
        if (Add) {
          for (int C2 = 0; C2 < NCount; ++C2)
            CRow[C2] += Tile[R][C2];
        } else {
          const float Base = RowBias ? RowBias[Row0 + R] : 0.0f;
          for (int C2 = 0; C2 < NCount; ++C2)
            CRow[C2] = Tile[R][C2] + Base;
        }
      }
    }
  }
}

/// Total panel-padded row count of an M-row A operand: full MC blocks
/// keep their height (MC is a multiple of MR), the tail block rounds up
/// to whole MR panels.
size_t paddedARows(int M) {
  return static_cast<size_t>(M / MC) * MC + roundUpTo(M % MC, MR);
}

/// Total panel-padded column count of an N-column B operand.
size_t paddedBCols(int N) {
  return static_cast<size_t>(N / NC) * NC + roundUpTo(N % NC, NR);
}

} // namespace

PackedPanels wootz::packGemmA(const float *A, size_t RowStride,
                              size_t ColStride, int M, int K) {
  assert(M > 0 && K > 0 && "empty A operand");
  PackedPanels Out;
  Out.Extent = M;
  Out.Depth = K;
  Out.Data.resize(paddedARows(M) * static_cast<size_t>(K));
  // KC slices are outermost in the engine's loop nest; within a slice
  // the MC row blocks (and their MR panels) are laid out contiguously,
  // so a row block starts at PaddedM * Depth0 + Row0 * KBlock.
  for (int Depth0 = 0; Depth0 < K; Depth0 += KC) {
    const int KBlock = std::min(KC, K - Depth0);
    packAPanels(A + static_cast<size_t>(Depth0) * ColStride, RowStride,
                ColStride, M, KBlock,
                Out.Data.data() + paddedARows(M) * Depth0);
  }
  return Out;
}

PackedPanels wootz::packGemmB(const float *B, size_t RowStride,
                              size_t ColStride, int K, int N) {
  assert(K > 0 && N > 0 && "empty B operand");
  PackedPanels Out;
  Out.Extent = N;
  Out.Depth = K;
  Out.Data.resize(paddedBCols(N) * static_cast<size_t>(K));
  // NC column blocks are outermost for B; a block holds its KC slices
  // back to back, so slice (Col0, Depth0) starts at K * Col0 +
  // roundUp(NBlock) * Depth0.
  for (int Col0 = 0; Col0 < N; Col0 += NC) {
    const int NBlock = std::min(NC, N - Col0);
    for (int Depth0 = 0; Depth0 < K; Depth0 += KC) {
      const int KBlock = std::min(KC, K - Depth0);
      packBPanels(B + static_cast<size_t>(Depth0) * RowStride +
                      static_cast<size_t>(Col0) * ColStride,
                  RowStride, ColStride, KBlock, NBlock,
                  Out.Data.data() + static_cast<size_t>(K) * Col0 +
                      roundUpTo(NBlock, NR) * Depth0);
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Fused im2col+pack convolution
//===----------------------------------------------------------------------===//

namespace {

/// Packs rows [Depth0, Depth0 + KBlock) x columns [Col0, Col0 + NBlock)
/// of one sample's — never materialized — im2col matrix into NR-column
/// K-major panels, byte-identical to packBPanels() over the
/// materialized matrix. im2col row r maps to (channel, kh, kw) =
/// (r / Kernel^2, (r / Kernel) % Kernel, r % Kernel); column c maps to
/// output pixel (c / OutW, c % OutW); the source element is
/// Image[channel][oh * Stride - Pad + kh][ow * Stride - Pad + kw], zero
/// out of bounds.
void packConvColsB(const float *Image, int Height, int Width,
                   const ConvGeometry &G, int OutW, int Depth0, int KBlock,
                   int Col0, int NBlock, float *Out) {
  const int Kernel = G.KernelSize;
  // Decompose the KC slice's im2col rows once, incrementally: the panel
  // loop below touches every row per panel, and per-iteration div/mod
  // there costs as much as the micro-kernel math it feeds on small
  // GEMMs. Two divisions total, then counters.
  assert(KBlock <= KC && "one call packs at most one KC slice");
  int KWOf[KC], KHOf[KC];
  const float *PlaneOf[KC];
  {
    int KW = Depth0 % Kernel;
    int KH = (Depth0 / Kernel) % Kernel;
    int Channel = Depth0 / (Kernel * Kernel);
    for (int KOff = 0; KOff < KBlock; ++KOff) {
      KWOf[KOff] = KW;
      KHOf[KOff] = KH;
      PlaneOf[KOff] = Image + static_cast<size_t>(Channel) * Height * Width;
      if (++KW == Kernel) {
        KW = 0;
        if (++KH == Kernel) {
          KH = 0;
          ++Channel;
        }
      }
    }
  }
  for (int Panel0 = 0; Panel0 < NBlock; Panel0 += NR) {
    const int Panel = std::min(NR, NBlock - Panel0);
    int OutRow[NR], OutCol[NR];
    for (int C = 0; C < Panel; ++C) {
      const int Col = Col0 + Panel0 + C;
      OutRow[C] = Col / OutW;
      OutCol[C] = Col % OutW;
    }
    // At stride 1 the panel's columns fall into runs that stay on one
    // output row and so read consecutive pixels: [SegBegin[S],
    // SegBegin[S + 1]) for S < Segments. A panel spans several rows
    // whenever OutW < NR (8x8 images: every panel spans two).
    int SegBegin[NR + 1];
    int Segments = 0;
    for (int C = 0; C < Panel; ++C)
      if (C == 0 || OutRow[C] != OutRow[C - 1])
        SegBegin[Segments++] = C;
    SegBegin[Segments] = Panel;
    float *PanelOut =
        Out + static_cast<size_t>(Panel0 / NR) * KBlock * NR;
    for (int KOff = 0; KOff < KBlock; ++KOff) {
      const int KW = KWOf[KOff];
      const int KH = KHOf[KOff];
      const float *Plane = PlaneOf[KOff];
      float *Dst = PanelOut + static_cast<size_t>(KOff) * NR;
      if (G.Stride == 1) {
        // Copy each row segment's in-bounds middle straight through
        // (plain loops so the compiler vectorizes them — a variable-size
        // memcpy here is a library call per K-row) and zero-fill
        // whatever padding clips at either end.
        for (int S = 0; S < Segments; ++S) {
          const int Begin = SegBegin[S];
          const int Len = SegBegin[S + 1] - Begin;
          float *SegDst = Dst + Begin;
          const int IH = OutRow[Begin] - G.Pad + KH;
          const int IW0 = OutCol[Begin] - G.Pad + KW;
          int From = 0, To = 0;
          if (IH >= 0 && IH < Height) {
            From = std::min(Len, std::max(0, -IW0));
            To = std::max(From, std::min(Len, Width - IW0));
          }
          for (int J = 0; J < From; ++J)
            SegDst[J] = 0.0f;
          if (To > From) {
            const float *Src =
                Plane + static_cast<size_t>(IH) * Width + (IW0 + From);
            for (int J = From; J < To; ++J)
              SegDst[J] = Src[J - From];
          }
          for (int J = To; J < Len; ++J)
            SegDst[J] = 0.0f;
        }
        for (int J = Panel; J < NR; ++J)
          Dst[J] = 0.0f;
        continue;
      }
      int J = 0;
      for (; J < Panel; ++J) {
        const int IH = OutRow[J] * G.Stride - G.Pad + KH;
        const int IW = OutCol[J] * G.Stride - G.Pad + KW;
        Dst[J] = (IH >= 0 && IH < Height && IW >= 0 && IW < Width)
                     ? Plane[static_cast<size_t>(IH) * Width + IW]
                     : 0.0f;
      }
      for (; J < NR; ++J)
        Dst[J] = 0.0f;
    }
  }
}

/// The fused conv of one sample: all OutChannels rows of all ColCols
/// output columns, using the calling thread's scratch for the panels.
void convSample(const float *Image, int Height, int Width,
                const ConvGeometry &G, int OutW, int M, int K, int ColCols,
                const PackedPanels *APre, const float *Weights,
                const float *Bias, bool FuseReLU, float *OutSample) {
  KernelScratch &Local = KernelScratch::forCurrentThread();
  for (int CBlock = 0; CBlock < ColCols; CBlock += NC) {
    const int NBlock = std::min(NC, ColCols - CBlock);
    for (int Depth0 = 0; Depth0 < K; Depth0 += KC) {
      const int KBlock = std::min(KC, K - Depth0);
      // Only the first KC slice overwrites C (and carries the fused
      // bias); later slices accumulate, so per C element the K
      // summation order is fixed.
      const bool Add = Depth0 > 0;
      const float *BlockBias = Add ? nullptr : Bias;
      float *BPack = Local.PackB.ensure(roundUpTo(NBlock, NR) *
                                        static_cast<size_t>(KBlock));
      packConvColsB(Image, Height, Width, G, OutW, Depth0, KBlock, CBlock,
                    NBlock, BPack);
      for (int Row0 = 0; Row0 < M; Row0 += MC) {
        const int MBlock = std::min(MC, M - Row0);
        const float *APack;
        if (APre) {
          APack = APre->Data.data() + paddedARows(M) * Depth0 +
                  static_cast<size_t>(Row0) * KBlock;
        } else {
          float *Scratch = Local.PackA.ensure(
              roundUpTo(MBlock, MR) * static_cast<size_t>(KBlock));
          packAPanels(Weights + static_cast<size_t>(Row0) * K + Depth0,
                      static_cast<size_t>(K), 1, MBlock, KBlock, Scratch);
          APack = Scratch;
        }
        macroKernel(MBlock, NBlock, KBlock, APack, BPack,
                    OutSample + static_cast<size_t>(Row0) * ColCols +
                        CBlock,
                    static_cast<size_t>(ColCols), Add,
                    BlockBias ? BlockBias + Row0 : nullptr);
      }
    }
  }
  if (FuseReLU) {
    for (int Row = 0; Row < M; ++Row) {
      float *CRow = OutSample + static_cast<size_t>(Row) * ColCols;
      for (int J = 0; J < ColCols; ++J)
        CRow[J] = CRow[J] > 0.0f ? CRow[J] : 0.0f;
    }
  }
}

} // namespace

void wootz::convForwardFused(const float *Images, int Batch, int Height,
                             int Width, const ConvGeometry &G,
                             const PackedPanels *WeightsPre,
                             const float *Weights, const float *Bias,
                             bool FuseReLU, float *Out) {
  const int OutH = G.outExtent(Height);
  const int OutW = G.outExtent(Width);
  const int M = G.OutChannels;
  const int K = G.InChannels * G.KernelSize * G.KernelSize;
  const int ColCols = OutH * OutW;
  assert(Batch > 0 && M > 0 && K > 0 && ColCols > 0 &&
         "empty convolution");
  assert((!WeightsPre ||
          (WeightsPre->Extent == M && WeightsPre->Depth == K)) &&
         "packed conv weight extents mismatch");
  const size_t InPlane =
      static_cast<size_t>(G.InChannels) * Height * Width;
  const size_t OutPlane = static_cast<size_t>(M) * ColCols;
  for (int Sample = 0; Sample < Batch; ++Sample)
    convSample(Images + Sample * InPlane, Height, Width, G, OutW, M, K,
               ColCols, WeightsPre, Weights, Bias, FuseReLU,
               Out + Sample * OutPlane);
}

//===----------------------------------------------------------------------===//
// Blocked GEMM driver
//===----------------------------------------------------------------------===//

void detail::blockedGemmPacked(const PackedPanels *APre, const float *A,
                               size_t ARowStride, size_t AColStride,
                               const PackedPanels *BPre, const float *B,
                               size_t BRowStride, size_t BColStride,
                               float *C, int M, int K, int N,
                               bool Accumulate, const float *RowBias) {
  assert(M > 0 && K > 0 && N > 0 && "empty GEMM");
  assert(!(Accumulate && RowBias) &&
         "fused bias requires a non-accumulating product");
  assert((!APre || (APre->Extent == M && APre->Depth == K)) &&
         "packed A extents mismatch");
  assert((!BPre || (BPre->Extent == N && BPre->Depth == K)) &&
         "packed B extents mismatch");
  KernelScratch &Local = KernelScratch::forCurrentThread();
  for (int Col0 = 0; Col0 < N; Col0 += NC) {
    const int NBlock = std::min(NC, N - Col0);
    for (int Depth0 = 0; Depth0 < K; Depth0 += KC) {
      const int KBlock = std::min(KC, K - Depth0);
      // Only the first KC slice of a fresh product overwrites C (and
      // carries the fused bias); later slices accumulate, so per C
      // element the K summation order is fixed.
      const bool Add = Accumulate || Depth0 > 0;
      const float *BlockBias = Add ? nullptr : RowBias;

      // B's panel is packed once per (NC, KC) region and read by every
      // MC row block; A's panels are packed per row block. Pre-packed
      // operands skip both steps.
      const float *BPack;
      if (BPre) {
        BPack = BPre->Data.data() + static_cast<size_t>(K) * Col0 +
                roundUpTo(NBlock, NR) * Depth0;
      } else {
        float *Scratch = Local.PackB.ensure(
            roundUpTo(NBlock, NR) * static_cast<size_t>(KBlock));
        packBPanels(B + static_cast<size_t>(Depth0) * BRowStride +
                        static_cast<size_t>(Col0) * BColStride,
                    BRowStride, BColStride, KBlock, NBlock, Scratch);
        BPack = Scratch;
      }

      for (int Row0 = 0; Row0 < M; Row0 += MC) {
        const int MBlock = std::min(MC, M - Row0);
        const float *APack;
        if (APre) {
          APack = APre->Data.data() + paddedARows(M) * Depth0 +
                  static_cast<size_t>(Row0) * KBlock;
        } else {
          float *Scratch = Local.PackA.ensure(roundUpTo(MBlock, MR) *
                                              static_cast<size_t>(KBlock));
          packAPanels(A + static_cast<size_t>(Row0) * ARowStride +
                          static_cast<size_t>(Depth0) * AColStride,
                      ARowStride, AColStride, MBlock, KBlock, Scratch);
          APack = Scratch;
        }
        macroKernel(MBlock, NBlock, KBlock, APack, BPack,
                    C + static_cast<size_t>(Row0) * N + Col0,
                    static_cast<size_t>(N), Add,
                    BlockBias ? BlockBias + Row0 : nullptr);
      }
    }
  }
}

void detail::blockedGemm(const float *A, size_t ARowStride, size_t AColStride,
                         const float *B, size_t BRowStride, size_t BColStride,
                         float *C, int M, int K, int N, bool Accumulate,
                         const float *RowBias) {
  blockedGemmPacked(nullptr, A, ARowStride, AColStride, nullptr, B,
                    BRowStride, BColStride, C, M, K, N, Accumulate, RowBias);
}
