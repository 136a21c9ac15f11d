//===- tensor/Ops.h - Tensor kernels ---------------------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The numeric kernels under the nn layer implementations: GEMM,
/// im2col/col2im for convolution, and the elementwise/axpy helpers.
/// The GEMM entry points dispatch to the cache-blocked, register-tiled
/// engine in tensor/Kernels.h once the problem is big enough to
/// amortize panel packing; tiny problems fall back to the reference
/// triple loops, which are also exported (gemmReference and friends) as
/// the oracle for parity tests and the baseline for bench_kernels.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TENSOR_OPS_H
#define WOOTZ_TENSOR_OPS_H

#include "src/tensor/Kernels.h"
#include "src/tensor/Tensor.h"

namespace wootz {

/// True when an M x K x N product is big enough that the GEMM entry
/// points below dispatch to the blocked engine rather than the
/// reference loops. Exported so freeze-time callers (wootz::plan) can
/// pre-pack operand panels exactly for the products that will use them.
bool gemmUsesBlockedEngine(int M, int K, int N);

/// C = A * B with A: MxK, B: KxN, C: MxN. \p Accumulate adds into C
/// instead of overwriting it.
void gemm(const float *A, const float *B, float *C, int M, int K, int N,
          bool Accumulate = false);

/// C = A^T * B with A: KxM, B: KxN, C: MxN.
void gemmTransposeA(const float *A, const float *B, float *C, int M, int K,
                    int N, bool Accumulate = false);

/// C = A * B^T with A: MxK, B: NxK, C: MxN.
void gemmTransposeB(const float *A, const float *B, float *C, int M, int K,
                    int N, bool Accumulate = false);

/// C = A * B + broadcast of \p Bias along rows (Bias has M entries, one
/// per row of C): the Conv2D bias epilogue fused into the GEMM so the
/// output is written exactly once.
void gemmBias(const float *A, const float *B, const float *Bias, float *C,
              int M, int K, int N);

/// The reference (seed) triple-loop GEMM kernels. Semantically identical
/// to gemm()/gemmTransposeA()/gemmTransposeB(); kept as the tiny-size
/// fallback, the parity-test oracle, and the bench_kernels baseline.
void gemmReference(const float *A, const float *B, float *C, int M, int K,
                   int N, bool Accumulate = false);
void gemmTransposeAReference(const float *A, const float *B, float *C,
                             int M, int K, int N, bool Accumulate = false);
void gemmTransposeBReference(const float *A, const float *B, float *C,
                             int M, int K, int N, bool Accumulate = false);

/// Expands one image (CHW, \p Image pointing at C*H*W floats) into
/// columns: the result has (C*KH*KW) rows and (OutH*OutW) columns.
void im2col(const float *Image, int Channels, int Height, int Width,
            const ConvGeometry &Geometry, float *Columns);

/// Inverse of im2col: accumulates columns back into the (zeroed) image.
void col2im(const float *Columns, int Channels, int Height, int Width,
            const ConvGeometry &Geometry, float *Image);

/// Out[I] += Scale * In[I] over \p Count elements.
void axpy(float Scale, const float *In, float *Out, size_t Count);

/// Out[I] *= Scale over \p Count elements.
void scale(float Scale, float *Out, size_t Count);

/// Returns the index of the largest element in [Values, Values+Count).
int argmax(const float *Values, int Count);

} // namespace wootz

#endif // WOOTZ_TENSOR_OPS_H
