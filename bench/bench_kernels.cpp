//===- bench/bench_kernels.cpp - Compute-kernel micro benchmark ------------------===//
//
// Tracks the performance of the compute substrate everything else sits
// on: blocked vs reference GEMM GFLOP/s across sizes, and the eval
// convolution's fused im2col+pack path against a materialized im2col
// matrix. Kernels run on the calling thread. Every row also lands in
// BENCH_kernels.json so the perf trajectory is machine-readable.
//
//===----------------------------------------------------------------------===//

#include "src/nn/Layers.h"
#include "src/support/File.h"
#include "src/support/Json.h"
#include "src/support/Rng.h"
#include "src/support/Stopwatch.h"
#include "src/support/StringUtils.h"
#include "src/support/Table.h"
#include "src/tensor/Kernels.h"
#include "src/tensor/Ops.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace wootz;

namespace {

/// Median seconds per call: repeats \p Body until ~0.12 s have
/// accumulated (after one warmup call), three times, and takes the
/// median of the per-call means.
double secondsPerCall(const std::function<void()> &Body) {
  Body(); // Warmup: scratch allocation, page faults.
  std::vector<double> Means;
  for (int Round = 0; Round < 3; ++Round) {
    Stopwatch Timer;
    int Reps = 0;
    do {
      Body();
      ++Reps;
    } while (Timer.seconds() < 0.12);
    Means.push_back(Timer.seconds() / Reps);
  }
  std::sort(Means.begin(), Means.end());
  return Means[1];
}

void fillRandom(float *Data, size_t Count, Rng &Generator) {
  for (size_t I = 0; I < Count; ++I)
    Data[I] = Generator.nextGaussian();
}

double gflops(double Flops, double Seconds) {
  return Seconds > 0.0 ? Flops / Seconds / 1e9 : 0.0;
}

} // namespace

int main() {
  std::printf("=== Compute kernels: blocked GEMM and fused Conv2D ===\n\n");
  std::string JsonRows;
  auto pushRow = [&JsonRows](const JsonObject &Row) {
    JsonRows += std::string(JsonRows.empty() ? "" : ",\n  ") + Row.str();
  };

  Rng Generator(0xbe7c);

  //===--------------------------------------------------------------------===//
  // GEMM: reference vs blocked.
  //===--------------------------------------------------------------------===//
  Table GemmTable({"size", "ref GF/s", "blocked GF/s", "speedup"});
  for (int Size : {32, 64, 128, 256, 512}) {
    const size_t Count = static_cast<size_t>(Size) * Size;
    Tensor A(Shape{Size, Size}), B(Shape{Size, Size}), C(Shape{Size, Size});
    fillRandom(A.data(), Count, Generator);
    fillRandom(B.data(), Count, Generator);
    const double Flops = 2.0 * Size * Size * Size;

    const double RefSec = secondsPerCall(
        [&] { gemmReference(A.data(), B.data(), C.data(), Size, Size, Size); });
    const double BlockedSec = secondsPerCall(
        [&] { gemm(A.data(), B.data(), C.data(), Size, Size, Size); });

    const double RefGf = gflops(Flops, RefSec);
    const double BlockedGf = gflops(Flops, BlockedSec);
    GemmTable.addRow({std::to_string(Size), formatDouble(RefGf, 2),
                      formatDouble(BlockedGf, 2),
                      formatDouble(BlockedGf / RefGf, 2) + "x"});
    JsonObject Row;
    Row.field("kind", "gemm")
        .field("m", Size)
        .field("k", Size)
        .field("n", Size)
        .field("gflops_reference", RefGf, 3)
        .field("gflops_blocked", BlockedGf, 3)
        .field("speedup_blocked_vs_reference", BlockedGf / RefGf, 3);
    pushRow(Row);
  }
  std::printf("--- GEMM (square, single precision) ---\n%s\n",
              GemmTable.render().c_str());

  //===--------------------------------------------------------------------===//
  // Eval conv forward: fused im2col+pack vs materialized im2col.
  //===--------------------------------------------------------------------===//
  const int Batch = 8;
  const ConvGeometry Geometry{16, 32, 3, 1, 1};
  const int Height = 16, Width = 16;
  Conv2D Conv(Geometry);
  Conv.initParams(Generator);
  Tensor In(Shape{Batch, Geometry.InChannels, Height, Width});
  fillRandom(In.data(), In.size(), Generator);
  Tensor Out(Conv.outputShape({In.shape()}));

  const int ColCols = Geometry.outExtent(Height) * Geometry.outExtent(Width);
  const int M = Geometry.OutChannels;
  const int K = Geometry.InChannels * Geometry.KernelSize * Geometry.KernelSize;
  const double FwdFlops = 2.0 * Batch * M * static_cast<double>(K) * ColCols;
  const float *WeightPtr = Conv.weight().Value.data();
  const float *BiasPtr = Conv.bias() ? Conv.bias()->Value.data() : nullptr;

  // Baseline: the pre-fusion eval path — materialize each sample's
  // im2col matrix, then run the same blocked GEMM over it.
  std::vector<float> Columns(static_cast<size_t>(K) * ColCols);
  const size_t InPlane =
      static_cast<size_t>(Geometry.InChannels) * Height * Width;
  const size_t OutPlane = static_cast<size_t>(M) * ColCols;
  const double MaterializedSec = secondsPerCall([&] {
    for (int S = 0; S < Batch; ++S) {
      im2col(In.data() + S * InPlane, Geometry.InChannels, Height, Width,
             Geometry, Columns.data());
      detail::blockedGemm(WeightPtr, static_cast<size_t>(K), 1,
                          Columns.data(), static_cast<size_t>(ColCols), 1,
                          Out.data() + S * OutPlane, M, K, ColCols,
                          /*Accumulate=*/false, BiasPtr);
    }
  });
  const double FusedSec = secondsPerCall([&] {
    convForwardFused(In.data(), Batch, Height, Width, Geometry, nullptr,
                     WeightPtr, BiasPtr, /*FuseReLU=*/false, Out.data());
  });

  Table EvalTable({"im2col", "fwd ms", "fwd GF/s"});
  EvalTable.addRow({"materialized", formatDouble(MaterializedSec * 1e3, 3),
                    formatDouble(gflops(FwdFlops, MaterializedSec), 2)});
  EvalTable.addRow({"fused", formatDouble(FusedSec * 1e3, 3),
                    formatDouble(gflops(FwdFlops, FusedSec), 2)});
  const double FusedSpeedup = FusedSec > 0.0 ? MaterializedSec / FusedSec : 0.0;
  std::printf("--- Conv2D eval forward %dx%d k%d, %d->%d channels, batch "
              "%d ---\n%s\nfused vs materialized im2col: %.2fx\n\n",
              Height, Width, Geometry.KernelSize, Geometry.InChannels, M,
              Batch, EvalTable.render().c_str(), FusedSpeedup);
  JsonObject EvalRow;
  EvalRow.field("kind", "conv2d_eval_fused")
      .field("batch", Batch)
      .field("m", M)
      .field("k", K)
      .field("n", ColCols)
      .field("forward_seconds", FusedSec, 6)
      .field("forward_gflops", gflops(FwdFlops, FusedSec), 3)
      .field("materialized_seconds", MaterializedSec, 6)
      .field("fused_vs_materialized", FusedSpeedup, 3);
  pushRow(EvalRow);

  const std::string JsonPath = "BENCH_kernels.json";
  Error WriteErr = writeFile(JsonPath, "[\n  " + JsonRows + "\n]\n");
  if (WriteErr)
    std::printf("warning: could not write %s: %s\n", JsonPath.c_str(),
                WriteErr.message().c_str());
  else
    std::printf("wrote %s\n", JsonPath.c_str());
  return 0;
}
