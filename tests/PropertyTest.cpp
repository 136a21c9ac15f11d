//===- tests/PropertyTest.cpp - randomized whole-stack properties -----------------===//
//
// Property-based sweeps over randomly generated module-structured models
// (models/RandomModels.h): every generated model must parse, analyze,
// plan, build in all three multiplexing modes, run forward, and survive
// weight transfer exactly — for every seed. These parameterized suites
// are the broad-coverage counterpart of the hand-written unit tests.
//
//===----------------------------------------------------------------------===//

#include "src/compiler/Multiplexing.h"
#include "src/models/RandomModels.h"
#include "src/nn/Layers.h"
#include "src/pruning/Transfer.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace wootz;

namespace {

//===----------------------------------------------------------------------===//
// Random-model structural properties
//===----------------------------------------------------------------------===//

class RandomModelProperty : public ::testing::TestWithParam<int> {
protected:
  ModelSpec makeModel() {
    Rng Generator(static_cast<uint64_t>(GetParam()) * 7919 + 13);
    Result<ModelSpec> Spec = makeRandomModel(
        "random-" + std::to_string(GetParam()), Generator);
    EXPECT_TRUE(static_cast<bool>(Spec)) << Spec.message();
    return Spec.take();
  }

  PruneConfig randomConfig(const ModelSpec &Spec) {
    Rng Generator(static_cast<uint64_t>(GetParam()) * 104729 + 7);
    PruneConfig Config(Spec.moduleCount());
    const std::vector<float> Rates = standardRates();
    for (float &Rate : Config)
      Rate = Generator.choice(Rates);
    return Config;
  }
};

TEST_P(RandomModelProperty, ParsesAndRoundTrips) {
  const ModelSpec Spec = makeModel();
  EXPECT_GE(Spec.moduleCount(), 2);
  // Printer -> parser round trip preserves the structure.
  Result<ModelSpec> Reparsed = parseModelSpec(printModelSpec(Spec));
  ASSERT_TRUE(static_cast<bool>(Reparsed)) << Reparsed.message();
  EXPECT_EQ(Reparsed->Layers.size(), Spec.Layers.size());
  EXPECT_EQ(Reparsed->moduleCount(), Spec.moduleCount());
  EXPECT_EQ(Reparsed->Prunable, Spec.Prunable);
}

TEST_P(RandomModelProperty, ModulesHaveBoundariesAndPrunableConvs) {
  const ModelSpec Spec = makeModel();
  for (const ModuleSpec &M : Spec.Modules) {
    EXPECT_FALSE(M.ExternalInput.empty());
    EXPECT_FALSE(M.OutputLayer.empty());
    EXPECT_LE(M.FirstLayer, M.LastLayer);
    int PrunableInModule = 0;
    for (int I = M.FirstLayer; I <= M.LastLayer; ++I)
      PrunableInModule += Spec.Prunable[I];
    EXPECT_GE(PrunableInModule, 1) << "module " << M.Name;
  }
}

TEST_P(RandomModelProperty, PlansCleanlyAndShrinksMonotonically) {
  const ModelSpec Spec = makeModel();
  const size_t FullWeights = modelWeightCount(Spec, unprunedConfig(Spec));
  size_t Previous = FullWeights;
  for (float Rate : {0.3f, 0.5f, 0.7f}) {
    const PruneConfig Config(Spec.moduleCount(), Rate);
    Result<ChannelPlan> Plan = planChannels(Spec, Config);
    ASSERT_TRUE(static_cast<bool>(Plan)) << Plan.message();
    const size_t Weights = modelWeightCount(Spec, Config);
    // Non-strict: tiny layers can hit the keep-at-least-one floor at
    // two adjacent rates (e.g. 3 filters keep 2 at both 30% and 50%).
    EXPECT_LE(Weights, Previous) << "rate " << Rate;
    EXPECT_LT(Weights, FullWeights) << "rate " << Rate;
    Previous = Weights;
    // Module outputs stay full width (the composability invariant).
    for (const ModuleSpec &M : Spec.Modules) {
      const int Index = Spec.layerIndex(M.OutputLayer);
      Result<ChannelPlan> Full = planChannels(Spec, unprunedConfig(Spec));
      EXPECT_EQ(Plan->OutChannels[Index], Full->OutChannels[Index]);
    }
  }
}

TEST_P(RandomModelProperty, FullAndFineTuneModesForward) {
  const ModelSpec Spec = makeModel();
  const MultiplexingModel Model(Spec);
  Rng Generator(GetParam());

  Graph Full;
  Result<BuildResult> FullBuilt = Model.build(
      Full, BuildMode::FullModel, PruneInfo(), "full", Generator);
  ASSERT_TRUE(static_cast<bool>(FullBuilt)) << FullBuilt.message();

  PruneInfo Info;
  Info.Config = randomConfig(Spec);
  Graph Pruned;
  Result<BuildResult> PrunedBuilt =
      Model.build(Pruned, BuildMode::FineTune, Info, "net", Generator);
  ASSERT_TRUE(static_cast<bool>(PrunedBuilt)) << PrunedBuilt.message();

  Tensor Input(Shape{2, 3, Spec.InputHeight, Spec.InputWidth});
  for (size_t I = 0; I < Input.size(); ++I)
    Input[I] = Generator.nextGaussian();
  ExecContext FullCtx(Full);
  FullCtx.setInput(Spec.InputName, Input);
  FullCtx.forward(Full, false);
  ExecContext PrunedCtx(Pruned);
  PrunedCtx.setInput(Spec.InputName, Input);
  PrunedCtx.forward(Pruned, false);
  const int Classes = Spec.Layers.back().NumOutput;
  EXPECT_EQ(FullCtx.activation(FullBuilt->LogitsNode).shape(),
            Shape({2, Classes}));
  EXPECT_EQ(PrunedCtx.activation(PrunedBuilt->LogitsNode).shape(),
            Shape({2, Classes}));
  // The pruned model has fewer parameters whenever any module is pruned.
  bool AnyPruned = false;
  for (float Rate : Info.Config)
    AnyPruned = AnyPruned || Rate != 0.0f;
  if (AnyPruned)
    EXPECT_LT(Pruned.paramCount(), Full.paramCount());
}

TEST_P(RandomModelProperty, UnprunedTransferIsFunctionIdentity) {
  const ModelSpec Spec = makeModel();
  const MultiplexingModel Model(Spec);
  Rng Generator(GetParam() + 1000);

  Graph Full;
  Result<BuildResult> FullBuilt = Model.build(
      Full, BuildMode::FullModel, PruneInfo(), "full", Generator);
  ASSERT_TRUE(static_cast<bool>(FullBuilt));
  PruneInfo Info;
  Info.Config = unprunedConfig(Spec);
  Graph Copy;
  Result<BuildResult> CopyBuilt =
      Model.build(Copy, BuildMode::FineTune, Info, "net", Generator);
  ASSERT_TRUE(static_cast<bool>(CopyBuilt));
  transferWeights(Spec, FilterSelections(), Full, "full", Copy, "net");

  Tensor Input(Shape{1, 3, Spec.InputHeight, Spec.InputWidth});
  for (size_t I = 0; I < Input.size(); ++I)
    Input[I] = Generator.nextGaussian();
  ExecContext FullCtx(Full);
  FullCtx.setInput(Spec.InputName, Input);
  FullCtx.forward(Full, false);
  ExecContext CopyCtx(Copy);
  CopyCtx.setInput(Spec.InputName, Input);
  CopyCtx.forward(Copy, false);
  const Tensor &A = FullCtx.activation(FullBuilt->LogitsNode);
  const Tensor &B = CopyCtx.activation(CopyBuilt->LogitsNode);
  ASSERT_EQ(A.shape(), B.shape());
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(A[I], B[I], 1e-5) << "logit " << I;
}

TEST_P(RandomModelProperty, PrunedTransferKeepsSelectedSlices) {
  const ModelSpec Spec = makeModel();
  const MultiplexingModel Model(Spec);
  Rng Generator(GetParam() + 2000);
  Graph Full;
  ASSERT_TRUE(static_cast<bool>(Model.build(
      Full, BuildMode::FullModel, PruneInfo(), "full", Generator)));

  const PruneConfig Config = randomConfig(Spec);
  const FilterSelections Selections =
      selectFiltersByL1(Spec, Config, Full, "full");
  PruneInfo Info;
  Info.Config = Config;
  Graph Pruned;
  ASSERT_TRUE(static_cast<bool>(
      Model.build(Pruned, BuildMode::FineTune, Info, "net", Generator)));
  transferWeights(Spec, Selections, Full, "full", Pruned, "net");
  // Forward must run; selections must be ascending subsets.
  Tensor Input(Shape{1, 3, Spec.InputHeight, Spec.InputWidth});
  ExecContext PrunedCtx(Pruned);
  PrunedCtx.setInput(Spec.InputName, Input);
  PrunedCtx.forward(Pruned, false);
  for (const auto &[Name, Kept] : Selections) {
    ASSERT_FALSE(Kept.empty()) << Name;
    for (size_t I = 1; I < Kept.size(); ++I)
      ASSERT_LT(Kept[I - 1], Kept[I]) << Name;
  }
}

TEST_P(RandomModelProperty, PreTrainModeWiresEveryBlock) {
  const ModelSpec Spec = makeModel();
  const MultiplexingModel Model(Spec);
  Rng Generator(GetParam() + 3000);
  // One single-module block per module at a random pruned rate.
  PruneInfo Info;
  Rng RateGen(GetParam() + 4000);
  for (int M = 0; M < Spec.moduleCount(); ++M)
    Info.Blocks.push_back(TuningBlock{
        M, {RateGen.choice(std::vector<float>{0.3f, 0.5f, 0.7f})}});
  Graph Network;
  Result<BuildResult> Built = Model.build(Network, BuildMode::PreTrain,
                                          Info, "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  ASSERT_EQ(Built->Ports.size(), Info.Blocks.size());

  Tensor Input(Shape{1, 3, Spec.InputHeight, Spec.InputWidth});
  for (size_t I = 0; I < Input.size(); ++I)
    Input[I] = Generator.nextGaussian();
  ExecContext Ctx(Network);
  Ctx.setInput(Spec.InputName, Input);
  Ctx.forward(Network, true);
  for (const BlockPort &Port : Built->Ports)
    ASSERT_EQ(Ctx.activation(Port.StudentOut).shape(),
              Ctx.activation(Port.TeacherOut).shape())
        << Port.Block.id();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelProperty,
                         ::testing::Range(1, 17));

//===----------------------------------------------------------------------===//
// Conv2D gradient sweep across geometries
//===----------------------------------------------------------------------===//

class ConvGeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvGeometrySweep, WeightGradientsMatchFiniteDifferences) {
  const auto [Kernel, Stride, Pad] = GetParam();
  if (Pad >= Kernel)
    GTEST_SKIP() << "padding must stay below the kernel size";
  Rng Generator(Kernel * 100 + Stride * 10 + Pad);
  Graph Network;
  Network.addInput("x");
  Network.addNode(
      "conv",
      std::make_unique<Conv2D>(ConvGeometry{2, 3, Kernel, Stride, Pad}),
      {"x"});
  Network.layer("conv").initParams(Generator);
  Tensor Input(Shape{2, 2, 7, 7});
  for (size_t I = 0; I < Input.size(); ++I)
    Input[I] = Generator.nextGaussian();

  ExecContext Ctx(Network);
  auto loss = [&]() {
    Ctx.setInput("x", Input);
    Ctx.forward(Network, true);
    const Tensor &Out = Ctx.activation("conv");
    double Total = 0.0;
    for (size_t I = 0; I < Out.size(); ++I)
      Total += 0.5 * static_cast<double>(Out[I]) * Out[I];
    return Total;
  };
  loss();
  Network.zeroGrads();
  const Tensor &Out = Ctx.activation("conv");
  Tensor Seed(Out.shape());
  for (size_t I = 0; I < Out.size(); ++I)
    Seed[I] = Out[I];
  Ctx.seedGradient("conv", Seed);
  Ctx.backward(Network);

  Param &Weight = *Network.layer("conv").params()[0];
  std::vector<float> Analytic(Weight.Grad.data(),
                              Weight.Grad.data() + Weight.Grad.size());
  const size_t Stride2 = std::max<size_t>(1, Weight.Value.size() / 23);
  for (size_t I = 0; I < Weight.Value.size(); I += Stride2) {
    const float Saved = Weight.Value[I];
    const float Eps = 1e-3f;
    Weight.Value[I] = Saved + Eps;
    const double Plus = loss();
    Weight.Value[I] = Saved - Eps;
    const double Minus = loss();
    Weight.Value[I] = Saved;
    const double Numeric = (Plus - Minus) / (2.0 * Eps);
    EXPECT_NEAR(Analytic[I], Numeric, 2e-2 * (1.0 + std::fabs(Numeric)))
        << "k" << Kernel << " s" << Stride << " p" << Pad << " at " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGeometrySweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 2)));

} // namespace
