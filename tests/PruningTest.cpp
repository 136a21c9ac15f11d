//===- tests/PruningTest.cpp - pruning/ unit tests ---------------------------------===//

#include "src/compiler/Multiplexing.h"
#include "src/nn/Layers.h"
#include "src/models/MiniModels.h"
#include "src/pruning/Transfer.h"

#include <gtest/gtest.h>

#include <set>

using namespace wootz;

namespace {

//===----------------------------------------------------------------------===//
// PruneConfig helpers
//===----------------------------------------------------------------------===//

TEST(PruneConfigTest, KeptFiltersRounding) {
  EXPECT_EQ(keptFilters(8, 0.0f), 8);
  EXPECT_EQ(keptFilters(8, 0.3f), 6);  // 5.6 -> 6.
  EXPECT_EQ(keptFilters(8, 0.5f), 4);
  EXPECT_EQ(keptFilters(8, 0.7f), 2);  // 2.4 -> 2.
  EXPECT_EQ(keptFilters(1, 0.7f), 1);  // Never below one.
}

TEST(PruneConfigTest, StandardRates) {
  const std::vector<float> Rates = standardRates();
  ASSERT_EQ(Rates.size(), 4u);
  EXPECT_FLOAT_EQ(Rates[0], 0.0f);
  EXPECT_FLOAT_EQ(Rates[3], 0.7f);
}

TEST(PruneConfigTest, FormatConfig) {
  EXPECT_EQ(formatConfig({0.3f, 0.0f, 0.5f}), "[0.3, 0, 0.5]");
}

TEST(SubspaceTest, SamplesAreUniqueAndInAlphabet) {
  Rng Generator(1);
  const std::vector<float> Rates = standardRates();
  const std::vector<PruneConfig> Subspace =
      sampleSubspace(6, 40, Rates, Generator);
  EXPECT_EQ(Subspace.size(), 40u);
  std::set<PruneConfig> Unique(Subspace.begin(), Subspace.end());
  EXPECT_EQ(Unique.size(), Subspace.size());
  for (const PruneConfig &Config : Subspace) {
    EXPECT_EQ(Config.size(), 6u);
    for (float Rate : Config)
      EXPECT_TRUE(std::find(Rates.begin(), Rates.end(), Rate) !=
                  Rates.end());
  }
}

TEST(SubspaceTest, ExhaustsTinySpacesGracefully) {
  Rng Generator(2);
  // Only 2^2 = 4 configs exist; asking for 100 returns at most 4.
  const std::vector<PruneConfig> Subspace =
      sampleSubspace(2, 100, {0.0f, 0.5f}, Generator);
  EXPECT_LE(Subspace.size(), 4u);
  EXPECT_GE(Subspace.size(), 3u);
}

TEST(SubspaceTest, RunSamplingProducesRateRuns) {
  Rng Generator(3);
  const std::vector<PruneConfig> Subspace =
      sampleRunSubspace(8, 20, 2, standardRates(), Generator);
  EXPECT_FALSE(Subspace.empty());
  for (const PruneConfig &Config : Subspace) {
    // With at most 2 runs there is at most one rate change.
    int Changes = 0;
    for (size_t I = 1; I < Config.size(); ++I)
      Changes += Config[I] != Config[I - 1];
    EXPECT_LE(Changes, 1) << formatConfig(Config);
  }
}

TEST(SubspaceSpecTest, ParsesFigure3aFormat) {
  Result<std::vector<PruneConfig>> Configs = parseSubspaceSpec(
      "configs = [[0.3, 0, 0.3, 0], [0.5, 0, 0.3, 0]]");
  ASSERT_TRUE(static_cast<bool>(Configs)) << Configs.message();
  ASSERT_EQ(Configs->size(), 2u);
  EXPECT_FLOAT_EQ((*Configs)[0][0], 0.3f);
  EXPECT_FLOAT_EQ((*Configs)[1][0], 0.5f);
  EXPECT_FLOAT_EQ((*Configs)[0][1], 0.0f);
}

TEST(SubspaceSpecTest, PrefixOptionalAndCommentsAllowed) {
  Result<std::vector<PruneConfig>> Configs = parseSubspaceSpec(
      "# promising subspace\n[[0.7, 0.7]] # one config\n");
  ASSERT_TRUE(static_cast<bool>(Configs)) << Configs.message();
  EXPECT_EQ(Configs->size(), 1u);
}

TEST(SubspaceSpecTest, RejectsBadInput) {
  EXPECT_FALSE(static_cast<bool>(parseSubspaceSpec("")));
  EXPECT_FALSE(static_cast<bool>(parseSubspaceSpec("configs = [")));
  EXPECT_FALSE(static_cast<bool>(parseSubspaceSpec("[[0.3], [0.3, 0]]")));
  EXPECT_FALSE(static_cast<bool>(parseSubspaceSpec("[[1.5]]")));
  EXPECT_FALSE(static_cast<bool>(parseSubspaceSpec("stuff = [[0.3]]")));
}

TEST(SubspaceSpecTest, RoundTripsThroughPrinter) {
  Rng Generator(4);
  const std::vector<PruneConfig> Subspace =
      sampleSubspace(4, 10, standardRates(), Generator);
  Result<std::vector<PruneConfig>> Reparsed =
      parseSubspaceSpec(printSubspaceSpec(Subspace));
  ASSERT_TRUE(static_cast<bool>(Reparsed)) << Reparsed.message();
  EXPECT_EQ(*Reparsed, Subspace);
}

//===----------------------------------------------------------------------===//
// ChannelPlan
//===----------------------------------------------------------------------===//

TEST(ChannelPlanTest, FullPlanMatchesSpecWidths) {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 6);
  ASSERT_TRUE(static_cast<bool>(Spec));
  Result<ChannelPlan> Plan = planChannels(*Spec, unprunedConfig(*Spec));
  ASSERT_TRUE(static_cast<bool>(Plan)) << Plan.message();
  EXPECT_EQ(Plan->OutChannels[Spec->layerIndex("stem")], 12);
  EXPECT_EQ(Plan->OutChannels[Spec->layerIndex("m1_conv1")], 8);
  EXPECT_EQ(Plan->OutChannels[Spec->layerIndex("logits")], 6);
  // Global pool collapses spatial extents.
  const LayerExtents Pool = Plan->Extents[Spec->layerIndex("pool")];
  EXPECT_EQ(Pool.Height, 1);
  EXPECT_EQ(Pool.Width, 1);
}

TEST(ChannelPlanTest, PrunedPlanShrinksPrunableConvsOnly) {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 6);
  ASSERT_TRUE(static_cast<bool>(Spec));
  PruneConfig Config = unprunedConfig(*Spec);
  Config[0] = 0.5f;
  Result<ChannelPlan> Plan = planChannels(*Spec, Config);
  ASSERT_TRUE(static_cast<bool>(Plan));
  EXPECT_EQ(Plan->OutChannels[Spec->layerIndex("m1_conv1")], 4);
  EXPECT_EQ(Plan->OutChannels[Spec->layerIndex("m1_conv2")], 4);
  EXPECT_EQ(Plan->OutChannels[Spec->layerIndex("m1_conv3")], 12);
  EXPECT_EQ(Plan->OutChannels[Spec->layerIndex("m2_conv1")], 8);
}

TEST(ChannelPlanTest, ConcatWidthsSum) {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::InceptionA, 6);
  ASSERT_TRUE(static_cast<bool>(Spec));
  Result<ChannelPlan> Plan = planChannels(*Spec, unprunedConfig(*Spec));
  ASSERT_TRUE(static_cast<bool>(Plan));
  EXPECT_EQ(Plan->OutChannels[Spec->layerIndex("m1_out")], 12);
}

TEST(ChannelPlanTest, RejectsWrongRateCount) {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 6);
  ASSERT_TRUE(static_cast<bool>(Spec));
  Result<ChannelPlan> Plan = planChannels(*Spec, PruneConfig{0.5f});
  ASSERT_FALSE(static_cast<bool>(Plan));
}

TEST(ChannelPlanTest, WeightCountMatchesHandComputation) {
  // tiny hand-checkable model: conv 3->4 (k3, bias) + dense 4->2.
  const std::string Text = R"proto(
name: "hand"
input: "data"
input_dim: 1
input_dim: 3
input_dim: 8
input_dim: 8
layer { name: "c" type: "Convolution" bottom: "data" top: "c"
  convolution_param { num_output: 4 kernel_size: 3 stride: 1 pad: 1 } }
layer { name: "p" type: "Pooling" bottom: "c" top: "p"
  pooling_param { pool: AVE global_pooling: true } }
layer { name: "logits" type: "InnerProduct" bottom: "p" top: "logits"
  inner_product_param { num_output: 2 } }
)proto";
  Result<ModelSpec> Spec = parseModelSpec(Text);
  ASSERT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  // conv: 4*3*9 + 4 = 112; dense: 2*4 + 2 = 10.
  EXPECT_EQ(modelWeightCount(*Spec, unprunedConfig(*Spec)), 122u);
}

//===----------------------------------------------------------------------===//
// Filter selection and weight transfer
//===----------------------------------------------------------------------===//

class TransferFixture : public ::testing::Test {
protected:
  void SetUp() override {
    Result<ModelSpec> Parsed = makeStandardModel(StandardModel::ResNetA, 6);
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
    Spec = Parsed.take();
    Model = std::make_unique<MultiplexingModel>(Spec);
    Rng Generator(17);
    Result<BuildResult> Built = Model->build(Full, BuildMode::FullModel,
                                             PruneInfo(), "full", Generator);
    ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  }

  ModelSpec Spec;
  std::unique_ptr<MultiplexingModel> Model;
  Graph Full;
};

TEST_F(TransferFixture, SelectionKeepsLargestL1Norms) {
  auto &Conv = static_cast<Conv2D &>(Full.layer("full/m1_conv1"));
  // Force known norms: filter i gets constant weight (i+1)/100.
  Tensor &W = Conv.weight().Value;
  const int Filters = W.shape()[0];
  const size_t FilterSize = W.size() / Filters;
  for (int O = 0; O < Filters; ++O)
    for (size_t J = 0; J < FilterSize; ++J)
      W[O * FilterSize + J] = static_cast<float>(O + 1) / 100.0f;

  PruneConfig Config = unprunedConfig(Spec);
  Config[0] = 0.5f; // Keep 4 of 8.
  const FilterSelections Selections =
      selectFiltersByL1(Spec, Config, Full, "full");
  const std::vector<int> &Kept = Selections.at("m1_conv1");
  EXPECT_EQ(Kept, (std::vector<int>{4, 5, 6, 7}));
}

TEST_F(TransferFixture, UnprunedLayersGetIdentitySelection) {
  const FilterSelections Selections =
      selectFiltersByL1(Spec, unprunedConfig(Spec), Full, "full");
  const std::vector<int> &Stem = Selections.at("stem");
  EXPECT_EQ(static_cast<int>(Stem.size()), 12);
  EXPECT_EQ(Stem[11], 11);
}

TEST_F(TransferFixture, OutputSelectionPropagatesThroughPassThrough) {
  PruneConfig Config = unprunedConfig(Spec);
  Config[0] = 0.7f;
  const FilterSelections Selections =
      selectFiltersByL1(Spec, Config, Full, "full");
  // The relu after m1_conv1 carries m1_conv1's selection.
  EXPECT_EQ(outputChannelSelection(Spec, Selections, "m1_conv1_relu"),
            Selections.at("m1_conv1"));
  // The module output (after the unpruned conv3 + eltwise) is full.
  EXPECT_EQ(
      outputChannelSelection(Spec, Selections, "m1_out").size(), 12u);
}

TEST_F(TransferFixture, TransferredWeightsMatchSlices) {
  PruneConfig Config = unprunedConfig(Spec);
  Config[0] = 0.5f;
  const FilterSelections Selections =
      selectFiltersByL1(Spec, Config, Full, "full");

  Graph Pruned;
  PruneInfo Info;
  Info.Config = Config;
  Rng Generator(23);
  Result<BuildResult> Built = Model->build(Pruned, BuildMode::FineTune,
                                           Info, "net", Generator);
  ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  transferWeights(Spec, Selections, Full, "full", Pruned, "net");

  auto &FullConv = static_cast<Conv2D &>(Full.layer("full/m1_conv2"));
  auto &PrunedConv = static_cast<Conv2D &>(Pruned.layer("net/m1_conv2"));
  const std::vector<int> &OutSel = Selections.at("m1_conv2");
  const std::vector<int> &InSel = Selections.at("m1_conv1");
  ASSERT_EQ(PrunedConv.weight().Value.shape()[0],
            static_cast<int>(OutSel.size()));
  ASSERT_EQ(PrunedConv.weight().Value.shape()[1],
            static_cast<int>(InSel.size()));
  for (size_t O = 0; O < OutSel.size(); ++O)
    for (size_t I = 0; I < InSel.size(); ++I)
      for (int H = 0; H < 3; ++H)
        for (int W = 0; W < 3; ++W)
          ASSERT_EQ(PrunedConv.weight().Value.at(static_cast<int>(O),
                                                 static_cast<int>(I), H, W),
                    FullConv.weight().Value.at(OutSel[O], InSel[I], H, W));
}

TEST_F(TransferFixture, UnprunedTransferReproducesFullOutputs) {
  // Transferring with an all-zero config must make the pruned network
  // functionally identical to the full model.
  Graph Copy;
  PruneInfo Info;
  Info.Config = unprunedConfig(Spec);
  Rng Generator(29);
  Result<BuildResult> Built =
      Model->build(Copy, BuildMode::FineTune, Info, "net", Generator);
  ASSERT_TRUE(static_cast<bool>(Built));
  transferWeights(Spec, FilterSelections(), Full, "full", Copy, "net");

  Tensor Input(Shape{2, 3, 8, 8});
  Rng DataGen(31);
  for (size_t I = 0; I < Input.size(); ++I)
    Input[I] = DataGen.nextGaussian();
  ExecContext FullCtx(Full);
  FullCtx.setInput("data", Input);
  FullCtx.forward(Full, false);
  ExecContext CopyCtx(Copy);
  CopyCtx.setInput("data", Input);
  CopyCtx.forward(Copy, false);
  const Tensor &A = FullCtx.activation("full/logits");
  const Tensor &B = CopyCtx.activation("net/logits");
  ASSERT_EQ(A.shape(), B.shape());
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(A[I], B[I], 1e-5);
}

TEST_F(TransferFixture, InceptionDenseSlicingRespectsConcatOffsets) {
  // Build an inception model, prune the last module, and check the
  // transfer runs and keeps shapes consistent (concat offsets exercise
  // outputChannelSelection's hardest path).
  Result<ModelSpec> ParsedInc =
      makeStandardModel(StandardModel::InceptionA, 6);
  ASSERT_TRUE(static_cast<bool>(ParsedInc));
  const ModelSpec IncSpec = ParsedInc.take();
  MultiplexingModel IncModel(IncSpec);
  Graph IncFull;
  Rng Generator(37);
  ASSERT_TRUE(static_cast<bool>(IncModel.build(
      IncFull, BuildMode::FullModel, PruneInfo(), "full", Generator)));

  PruneConfig Config = unprunedConfig(IncSpec);
  Config.back() = 0.7f;
  const FilterSelections Selections =
      selectFiltersByL1(IncSpec, Config, IncFull, "full");
  Graph Pruned;
  PruneInfo Info;
  Info.Config = Config;
  ASSERT_TRUE(static_cast<bool>(
      IncModel.build(Pruned, BuildMode::FineTune, Info, "net", Generator)));
  transferWeights(IncSpec, Selections, IncFull, "full", Pruned, "net");

  // Forward must run cleanly end to end on the pruned network.
  Tensor Input(Shape{1, 3, 8, 8});
  ExecContext PrunedCtx(Pruned);
  PrunedCtx.setInput("data", Input);
  PrunedCtx.forward(Pruned, false);
  EXPECT_EQ(PrunedCtx.activation("net/logits").shape(), Shape({1, 6}));
}

} // namespace
