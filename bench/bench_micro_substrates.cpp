//===- bench/bench_micro_substrates.cpp - substrate micro-benchmarks -------------===//
//
// google-benchmark fixtures for the performance-critical substrates: the
// GEMM/im2col kernels under Conv2D, full-network forward/backward, the
// Prototxt parser, Sequitur compression, and the tuning block
// identifier. These are not paper experiments; they guard the bench
// suite's wall-clock budget against substrate regressions.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "src/nn/Layers.h"
#include "src/nn/Loss.h"

#include <benchmark/benchmark.h>

using namespace wootz;

static void BM_Gemm(benchmark::State &State) {
  const int N = static_cast<int>(State.range(0));
  std::vector<float> A(N * N), B(N * N), C(N * N);
  Rng Generator(1);
  for (float &V : A)
    V = Generator.nextGaussian();
  for (float &V : B)
    V = Generator.nextGaussian();
  for (auto _ : State) {
    gemm(A.data(), B.data(), C.data(), N, N, N);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * int64_t(N) * N * N);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

static void BM_ConvForward(benchmark::State &State) {
  Rng Generator(2);
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv",
                  std::make_unique<Conv2D>(ConvGeometry{12, 12, 3, 1, 1}),
                  {"x"});
  Network.initParams(Generator);
  Tensor In(Shape{8, 12, 8, 8});
  for (size_t I = 0; I < In.size(); ++I)
    In[I] = Generator.nextGaussian();
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  for (auto _ : State) {
    Ctx.forward(Network, false);
    benchmark::DoNotOptimize(Ctx.activation("conv").data());
  }
}
BENCHMARK(BM_ConvForward);

static void BM_FullModelTrainStep(benchmark::State &State) {
  Rng Generator(3);
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 6);
  const MultiplexingModel Model(Spec.take());
  Graph Network;
  Result<BuildResult> Built = Model.build(Network, BuildMode::FullModel,
                                          PruneInfo(), "full", Generator);
  Tensor In(Shape{8, 3, 8, 8});
  for (size_t I = 0; I < In.size(); ++I)
    In[I] = Generator.nextGaussian();
  const std::vector<int> Labels{0, 1, 2, 3, 4, 5, 0, 1};
  Tensor Grad;
  ExecContext Ctx(Network);
  for (auto _ : State) {
    Ctx.setInput("data", In);
    Ctx.forward(Network, true);
    Network.zeroGrads();
    softmaxCrossEntropy(Ctx.activation(Built->LogitsNode), Labels, Grad);
    Ctx.seedGradient(Built->LogitsNode, Grad);
    Ctx.backward(Network);
  }
  State.SetLabel("one SGD step, batch 8, mini-resnet-a");
}
BENCHMARK(BM_FullModelTrainStep);

static void BM_PrototxtParse(benchmark::State &State) {
  const std::string Text =
      standardModelPrototxt(StandardModel::ResNetB, 8);
  for (auto _ : State) {
    Result<ModelSpec> Spec = parseModelSpec(Text);
    benchmark::DoNotOptimize(Spec->Layers.size());
  }
  State.SetBytesProcessed(State.iterations() * Text.size());
}
BENCHMARK(BM_PrototxtParse);

static void BM_SequiturAppend(benchmark::State &State) {
  Rng Generator(4);
  std::vector<int> Symbols(static_cast<size_t>(State.range(0)));
  for (int &S : Symbols)
    S = static_cast<int>(Generator.nextBelow(12));
  for (auto _ : State) {
    Sequitur Builder;
    for (int S : Symbols)
      Builder.append(S);
    benchmark::DoNotOptimize(&Builder);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_SequiturAppend)->Arg(1000)->Arg(10000);

static void BM_IdentifyTuningBlocks(benchmark::State &State) {
  Rng Generator(5);
  const std::vector<PruneConfig> Subspace = sampleSubspace(
      16, static_cast<int>(State.range(0)), standardRates(), Generator);
  for (auto _ : State) {
    IdentifierResult Result =
        identifyTuningBlocks(16, Subspace, standardRates());
    benchmark::DoNotOptimize(Result.Blocks.size());
  }
  State.SetLabel(std::to_string(Subspace.size()) + " networks");
}
BENCHMARK(BM_IdentifyTuningBlocks)->Arg(100)->Arg(500);

static void BM_WeightTransfer(benchmark::State &State) {
  Rng Generator(6);
  Result<ModelSpec> Parsed = makeStandardModel(StandardModel::ResNetA, 6);
  const ModelSpec Spec = Parsed.take();
  const MultiplexingModel Model(Spec);
  Graph Full;
  (void)Model.build(Full, BuildMode::FullModel, PruneInfo(), "full",
                    Generator);
  const PruneConfig Config(Spec.moduleCount(), 0.5f);
  Graph Pruned;
  PruneInfo Info;
  Info.Config = Config;
  (void)Model.build(Pruned, BuildMode::FineTune, Info, "net", Generator);
  for (auto _ : State) {
    const FilterSelections Selections =
        selectFiltersByL1(Spec, Config, Full, "full");
    transferWeights(Spec, Selections, Full, "full", Pruned, "net");
    benchmark::DoNotOptimize(&Pruned);
  }
}
BENCHMARK(BM_WeightTransfer);

BENCHMARK_MAIN();
