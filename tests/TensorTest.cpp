//===- tests/TensorTest.cpp - tensor/ unit tests --------------------------------===//

#include "src/support/Rng.h"
#include "src/tensor/Kernels.h"
#include "src/tensor/Ops.h"
#include "src/tensor/Tensor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

using namespace wootz;

namespace {

TEST(ShapeTest, ElementCount) {
  EXPECT_EQ(Shape({2, 3, 4, 5}).elementCount(), 120u);
  EXPECT_EQ(Shape({7}).elementCount(), 7u);
  EXPECT_EQ(Shape().elementCount(), 0u);
}

TEST(ShapeTest, EqualityAndStr) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
  EXPECT_EQ(Shape({1, 2}).str(), "[1, 2]");
}

TEST(TensorTest, ZeroInitialized) {
  Tensor T(Shape{2, 3});
  for (size_t I = 0; I < T.size(); ++I)
    EXPECT_EQ(T[I], 0.0f);
}

TEST(TensorTest, NchwIndexing) {
  Tensor T(Shape{2, 3, 4, 5});
  T.at(1, 2, 3, 4) = 9.0f;
  // Row-major NCHW: offset = ((n*C + c)*H + h)*W + w.
  EXPECT_EQ(T[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(TensorTest, MatrixIndexing) {
  Tensor T(Shape{3, 4});
  T.at(2, 1) = 5.0f;
  EXPECT_EQ(T[2 * 4 + 1], 5.0f);
}

TEST(TensorTest, FillSumMean) {
  Tensor T(Shape{4, 5});
  T.fill(0.5f);
  EXPECT_DOUBLE_EQ(T.sum(), 10.0);
  EXPECT_DOUBLE_EQ(T.mean(), 0.5);
  EXPECT_NEAR(T.rmsNorm(), 0.5, 1e-7);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor T(Shape{2, 6});
  T[7] = 3.0f;
  T.reshape(Shape{3, 4});
  EXPECT_EQ(T.shape(), Shape({3, 4}));
  EXPECT_EQ(T[7], 3.0f);
}

//===----------------------------------------------------------------------===//
// GEMM variants
//===----------------------------------------------------------------------===//

TEST(GemmTest, SmallKnownProduct) {
  // A = [[1,2],[3,4]], B = [[5,6],[7,8]].
  const float A[] = {1, 2, 3, 4};
  const float B[] = {5, 6, 7, 8};
  float C[4];
  gemm(A, B, C, 2, 2, 2);
  EXPECT_FLOAT_EQ(C[0], 19);
  EXPECT_FLOAT_EQ(C[1], 22);
  EXPECT_FLOAT_EQ(C[2], 43);
  EXPECT_FLOAT_EQ(C[3], 50);
}

TEST(GemmTest, AccumulateAddsIntoC) {
  const float A[] = {1, 0, 0, 1};
  const float B[] = {1, 2, 3, 4};
  float C[] = {10, 10, 10, 10};
  gemm(A, B, C, 2, 2, 2, /*Accumulate=*/true);
  EXPECT_FLOAT_EQ(C[0], 11);
  EXPECT_FLOAT_EQ(C[3], 14);
}

/// Reference O(n^3) matmul used to cross-check all variants.
static std::vector<float> refGemm(const std::vector<float> &A,
                                  const std::vector<float> &B, int M, int K,
                                  int N) {
  std::vector<float> C(static_cast<size_t>(M) * N, 0.0f);
  for (int I = 0; I < M; ++I)
    for (int L = 0; L < K; ++L)
      for (int J = 0; J < N; ++J)
        C[I * N + J] += A[I * K + L] * B[L * N + J];
  return C;
}

TEST(GemmTest, TransposeVariantsAgreeWithReference) {
  Rng Generator(5);
  const int M = 4, K = 6, N = 3;
  std::vector<float> A(M * K), B(K * N);
  for (float &V : A)
    V = Generator.nextGaussian();
  for (float &V : B)
    V = Generator.nextGaussian();
  const std::vector<float> Expected = refGemm(A, B, M, K, N);

  std::vector<float> C(M * N);
  gemm(A.data(), B.data(), C.data(), M, K, N);
  for (int I = 0; I < M * N; ++I)
    EXPECT_NEAR(C[I], Expected[I], 1e-5) << "gemm at " << I;

  // A^T variant: At is KxM.
  std::vector<float> At(K * M);
  for (int I = 0; I < M; ++I)
    for (int L = 0; L < K; ++L)
      At[L * M + I] = A[I * K + L];
  gemmTransposeA(At.data(), B.data(), C.data(), M, K, N);
  for (int I = 0; I < M * N; ++I)
    EXPECT_NEAR(C[I], Expected[I], 1e-5) << "gemmTransposeA at " << I;

  // B^T variant: Bt is NxK.
  std::vector<float> Bt(N * K);
  for (int L = 0; L < K; ++L)
    for (int J = 0; J < N; ++J)
      Bt[J * K + L] = B[L * N + J];
  gemmTransposeB(A.data(), Bt.data(), C.data(), M, K, N);
  for (int I = 0; I < M * N; ++I)
    EXPECT_NEAR(C[I], Expected[I], 1e-5) << "gemmTransposeB at " << I;
}

//===----------------------------------------------------------------------===//
// im2col / col2im
//===----------------------------------------------------------------------===//

TEST(Im2ColTest, IdentityKernelCopiesImage) {
  // 1x1 kernel, stride 1, no pad: columns == image.
  const int C = 2, H = 3, W = 3;
  std::vector<float> Image(C * H * W);
  for (size_t I = 0; I < Image.size(); ++I)
    Image[I] = static_cast<float>(I);
  ConvGeometry Geometry{C, 1, 1, 1, 0};
  std::vector<float> Columns(C * H * W);
  im2col(Image.data(), C, H, W, Geometry, Columns.data());
  EXPECT_EQ(Columns, Image);
}

TEST(Im2ColTest, PaddingYieldsZeros) {
  const int C = 1, H = 2, W = 2;
  const std::vector<float> Image = {1, 2, 3, 4};
  ConvGeometry Geometry{C, 1, 3, 1, 1};
  // Output is 2x2; column rows = 9.
  std::vector<float> Columns(9 * 4);
  im2col(Image.data(), C, H, W, Geometry, Columns.data());
  // Top-left output's first kernel tap (KH=0,KW=0) reads (-1,-1): zero.
  EXPECT_EQ(Columns[0], 0.0f);
  // Center tap (KH=1,KW=1) at output (0,0) reads pixel (0,0) = 1.
  EXPECT_EQ(Columns[(1 * 3 + 1) * 4 + 0], 1.0f);
}

TEST(Im2ColTest, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> characterizes the adjoint and
  // validates both scatter/gather index computations at once.
  Rng Generator(21);
  const int C = 3, H = 5, W = 4;
  ConvGeometry Geometry{C, 1, 3, 2, 1};
  const int OutH = Geometry.outExtent(H);
  const int OutW = Geometry.outExtent(W);
  const size_t ColCount =
      static_cast<size_t>(C) * 9 * OutH * OutW;

  std::vector<float> X(static_cast<size_t>(C) * H * W);
  for (float &V : X)
    V = Generator.nextGaussian();
  std::vector<float> Y(ColCount);
  for (float &V : Y)
    V = Generator.nextGaussian();

  std::vector<float> Cols(ColCount);
  im2col(X.data(), C, H, W, Geometry, Cols.data());
  std::vector<float> Back(X.size(), 0.0f);
  col2im(Y.data(), C, H, W, Geometry, Back.data());

  double Lhs = 0.0, Rhs = 0.0;
  for (size_t I = 0; I < ColCount; ++I)
    Lhs += static_cast<double>(Cols[I]) * Y[I];
  for (size_t I = 0; I < X.size(); ++I)
    Rhs += static_cast<double>(X[I]) * Back[I];
  EXPECT_NEAR(Lhs, Rhs, 1e-3);
}

TEST(OpsTest, AxpyAndScale) {
  const float In[] = {1, 2, 3};
  float Out[] = {1, 1, 1};
  axpy(2.0f, In, Out, 3);
  EXPECT_FLOAT_EQ(Out[1], 5.0f);
  scale(0.5f, Out, 3);
  EXPECT_FLOAT_EQ(Out[1], 2.5f);
}

TEST(OpsTest, Argmax) {
  const float Values[] = {0.1f, 0.9f, 0.5f};
  EXPECT_EQ(argmax(Values, 3), 1);
  const float Ties[] = {1.0f, 1.0f};
  EXPECT_EQ(argmax(Ties, 2), 0); // First maximum wins.
}

} // namespace

//===----------------------------------------------------------------------===//
// GEMM algebraic properties (appended tests)
//===----------------------------------------------------------------------===//

namespace {

class GemmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GemmPropertyTest, IdentityIsNeutral) {
  const int N = 5;
  Rng Generator(GetParam());
  std::vector<float> A(N * N), Identity(N * N, 0.0f), C(N * N);
  for (float &V : A)
    V = Generator.nextGaussian();
  for (int I = 0; I < N; ++I)
    Identity[I * N + I] = 1.0f;
  gemm(A.data(), Identity.data(), C.data(), N, N, N);
  for (int I = 0; I < N * N; ++I)
    ASSERT_NEAR(C[I], A[I], 1e-6);
  gemm(Identity.data(), A.data(), C.data(), N, N, N);
  for (int I = 0; I < N * N; ++I)
    ASSERT_NEAR(C[I], A[I], 1e-6);
}

TEST_P(GemmPropertyTest, MatmulIsAssociative) {
  const int N = 4;
  Rng Generator(GetParam() + 100);
  std::vector<float> A(N * N), B(N * N), C(N * N);
  for (float &V : A)
    V = Generator.nextGaussian();
  for (float &V : B)
    V = Generator.nextGaussian();
  for (float &V : C)
    V = Generator.nextGaussian();
  std::vector<float> AB(N * N), ABthenC(N * N), BC(N * N), AthenBC(N * N);
  gemm(A.data(), B.data(), AB.data(), N, N, N);
  gemm(AB.data(), C.data(), ABthenC.data(), N, N, N);
  gemm(B.data(), C.data(), BC.data(), N, N, N);
  gemm(A.data(), BC.data(), AthenBC.data(), N, N, N);
  for (int I = 0; I < N * N; ++I)
    ASSERT_NEAR(ABthenC[I], AthenBC[I], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GemmPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace

//===----------------------------------------------------------------------===//
// Blocked-kernel parity: the blocked engine against the reference loops
// over odd and edge shapes, and multi-threaded determinism.
//===----------------------------------------------------------------------===//

namespace {

std::vector<float> randomVector(size_t Count, Rng &Generator) {
  std::vector<float> Values(Count);
  for (float &V : Values)
    V = Generator.nextGaussian();
  return Values;
}

/// Independent oracle (plain i-k-j accumulation into C).
void oracleGemm(const std::vector<float> &A, const std::vector<float> &B,
                std::vector<float> &C, int M, int K, int N,
                bool Accumulate) {
  if (!Accumulate)
    std::fill(C.begin(), C.end(), 0.0f);
  for (int I = 0; I < M; ++I)
    for (int L = 0; L < K; ++L)
      for (int J = 0; J < N; ++J)
        C[static_cast<size_t>(I) * N + J] +=
            A[static_cast<size_t>(I) * K + L] *
            B[static_cast<size_t>(L) * N + J];
}

TEST(GemmParityTest, BlockedMatchesReferenceOverEdgeShapes) {
  const int Sizes[] = {1, 2, 7, 17, 63, 64, 65, 200};
  Rng Generator(0xab1e);
  for (int M : Sizes) {
    for (int K : Sizes) {
      for (int N : Sizes) {
        const std::vector<float> A =
            randomVector(static_cast<size_t>(M) * K, Generator);
        const std::vector<float> B =
            randomVector(static_cast<size_t>(K) * N, Generator);
        // Strided views of the same operands for the transpose variants.
        std::vector<float> At(static_cast<size_t>(K) * M);
        for (int I = 0; I < M; ++I)
          for (int L = 0; L < K; ++L)
            At[static_cast<size_t>(L) * M + I] =
                A[static_cast<size_t>(I) * K + L];
        std::vector<float> Bt(static_cast<size_t>(N) * K);
        for (int L = 0; L < K; ++L)
          for (int J = 0; J < N; ++J)
            Bt[static_cast<size_t>(J) * K + L] =
                B[static_cast<size_t>(L) * N + J];
        const std::vector<float> Seed =
            randomVector(static_cast<size_t>(M) * N, Generator);

        // Sums have K gaussian terms; scale the absolute tolerance with
        // the contraction depth (still tight: ~1e-4 at K=200).
        const float Tolerance = 1e-5f * static_cast<float>(K) + 1e-5f;
        for (bool Accumulate : {false, true}) {
          std::vector<float> Expected = Seed;
          oracleGemm(A, B, Expected, M, K, N, Accumulate);

          // The blocked engine, called directly so that shapes below the
          // public entry points' size threshold exercise it too.
          std::vector<float> Got = Seed;
          wootz::detail::blockedGemm(A.data(), K, 1, B.data(), N, 1,
                                     Got.data(), M, K, N, Accumulate,
                                     nullptr);
          for (size_t I = 0; I < Got.size(); ++I)
            ASSERT_NEAR(Got[I], Expected[I], Tolerance)
                << "blockedGemm M=" << M << " K=" << K << " N=" << N
                << " acc=" << Accumulate << " at " << I;

          // Public entry points (dispatching) against the references.
          Got = Seed;
          gemm(A.data(), B.data(), Got.data(), M, K, N, Accumulate);
          std::vector<float> Ref = Seed;
          gemmReference(A.data(), B.data(), Ref.data(), M, K, N,
                        Accumulate);
          for (size_t I = 0; I < Got.size(); ++I)
            ASSERT_NEAR(Got[I], Ref[I], Tolerance)
                << "gemm M=" << M << " K=" << K << " N=" << N << " at "
                << I;

          Got = Seed;
          gemmTransposeA(At.data(), B.data(), Got.data(), M, K, N,
                         Accumulate);
          for (size_t I = 0; I < Got.size(); ++I)
            ASSERT_NEAR(Got[I], Expected[I], Tolerance)
                << "gemmTransposeA M=" << M << " K=" << K << " N=" << N
                << " at " << I;

          Got = Seed;
          gemmTransposeB(A.data(), Bt.data(), Got.data(), M, K, N,
                         Accumulate);
          for (size_t I = 0; I < Got.size(); ++I)
            ASSERT_NEAR(Got[I], Expected[I], Tolerance)
                << "gemmTransposeB M=" << M << " K=" << K << " N=" << N
                << " at " << I;
        }

        // Fused bias epilogue (non-accumulating by contract).
        const std::vector<float> Bias =
            randomVector(static_cast<size_t>(M), Generator);
        std::vector<float> Expected(static_cast<size_t>(M) * N, 0.0f);
        oracleGemm(A, B, Expected, M, K, N, false);
        for (int I = 0; I < M; ++I)
          for (int J = 0; J < N; ++J)
            Expected[static_cast<size_t>(I) * N + J] += Bias[I];
        std::vector<float> Got(static_cast<size_t>(M) * N, -7.0f);
        gemmBias(A.data(), B.data(), Bias.data(), Got.data(), M, K, N);
        for (size_t I = 0; I < Got.size(); ++I)
          ASSERT_NEAR(Got[I], Expected[I], Tolerance)
              << "gemmBias M=" << M << " K=" << K << " N=" << N << " at "
              << I;
      }
    }
  }
}

TEST(KernelScratchTest, BuffersAlignedAndReused) {
  KernelScratch &Scratch = KernelScratch::forCurrentThread();
  float *First = Scratch.PackA.ensure(1024);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(First) % KernelAlignment, 0u);
  // A smaller request must reuse the same allocation.
  EXPECT_EQ(Scratch.PackA.ensure(512), First);
  EXPECT_GE(Scratch.PackA.capacity(), 1024u);
}

TEST(TensorTest, DataCacheLineAligned) {
  Tensor T(Shape{3, 5, 7, 2});
  EXPECT_EQ(reinterpret_cast<uintptr_t>(T.data()) % KernelAlignment, 0u);
}

} // namespace
