//===- tests/CompilerTest.cpp - compiler/ unit tests ---------------------------------===//

#include "src/compiler/Codegen.h"
#include "src/compiler/GraphBuilder.h"
#include "src/compiler/NetsFactory.h"
#include "src/compiler/Solver.h"
#include "src/models/MiniModels.h"
#include "src/nn/Loss.h"
#include "src/nn/Serialize.h"

#include <gtest/gtest.h>

using namespace wootz;

namespace {

static ModelSpec resnetSpec() {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 6);
  EXPECT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  return Spec.take();
}

//===----------------------------------------------------------------------===//
// MultiplexingModel: FullModel mode
//===----------------------------------------------------------------------===//

TEST(MultiplexingTest, FullModelForwardShapes) {
  const MultiplexingModel Model(resnetSpec());
  Graph Network;
  Rng Generator(1);
  Result<BuildResult> Built = Model.build(Network, BuildMode::FullModel,
                                          PruneInfo(), "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  EXPECT_EQ(Built->LogitsNode, "full/logits");

  ExecContext Ctx(Network);
  Ctx.setInput("data", Tensor(Shape{2, 3, 8, 8}));
  Ctx.forward(Network, false);
  EXPECT_EQ(Ctx.activation("full/logits").shape(), Shape({2, 6}));
  EXPECT_EQ(Ctx.activation("full/m1_out").shape(),
            Shape({2, 12, 8, 8}));
}

TEST(MultiplexingTest, FineTuneModeShrinksChannels) {
  const ModelSpec Spec = resnetSpec();
  const MultiplexingModel Model(Spec);
  Graph Network;
  Rng Generator(2);
  PruneInfo Info;
  Info.Config = PruneConfig(Spec.moduleCount(), 0.7f);
  Result<BuildResult> Built = Model.build(Network, BuildMode::FineTune,
                                          Info, "net", Generator);
  ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  ExecContext Ctx(Network);
  Ctx.setInput("data", Tensor(Shape{1, 3, 8, 8}));
  Ctx.forward(Network, false);
  // 8 filters pruned at 70% leaves 2; module output stays at 12.
  EXPECT_EQ(Ctx.activation("net/m1_conv1").shape(),
            Shape({1, 2, 8, 8}));
  EXPECT_EQ(Ctx.activation("net/m1_out").shape(), Shape({1, 12, 8, 8}));
  EXPECT_EQ(Ctx.activation("net/logits").shape(), Shape({1, 6}));
}

TEST(MultiplexingTest, FineTuneRejectsBadConfig) {
  const MultiplexingModel Model(resnetSpec());
  Graph Network;
  Rng Generator(3);
  PruneInfo Info;
  Info.Config = {0.5f}; // Wrong module count.
  Result<BuildResult> Built = Model.build(Network, BuildMode::FineTune,
                                          Info, "net", Generator);
  EXPECT_FALSE(static_cast<bool>(Built));
}

//===----------------------------------------------------------------------===//
// MultiplexingModel: PreTrain mode (Teacher-Student)
//===----------------------------------------------------------------------===//

TEST(MultiplexingTest, PreTrainBuildsPortsPerBlock) {
  const ModelSpec Spec = resnetSpec();
  const MultiplexingModel Model(Spec);
  Graph Network;
  Rng Generator(4);
  PruneInfo Info;
  Info.Blocks = {TuningBlock{0, {0.5f}}, TuningBlock{2, {0.7f}}};
  Result<BuildResult> Built = Model.build(Network, BuildMode::PreTrain,
                                          Info, "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  ASSERT_EQ(Built->Ports.size(), 2u);
  EXPECT_EQ(Built->Ports[0].TeacherOut, "full/m1_out");
  EXPECT_EQ(Built->Ports[0].StudentOut, "full.b0/m1_out");
  EXPECT_EQ(Built->Ports[1].TeacherOut, "full/m3_out");

  ExecContext Ctx(Network);
  Ctx.setInput("data", Tensor(Shape{2, 3, 8, 8}));
  Ctx.forward(Network, true);
  // Student and teacher boundary activations agree in shape (the
  // composability dimension invariant).
  EXPECT_EQ(Ctx.activation(Built->Ports[0].StudentOut).shape(),
            Ctx.activation(Built->Ports[0].TeacherOut).shape());
}

TEST(MultiplexingTest, PreTrainFreezesTeacherOnly) {
  const ModelSpec Spec = resnetSpec();
  const MultiplexingModel Model(Spec);
  Graph Network;
  Rng Generator(5);
  PruneInfo Info;
  Info.Blocks = {TuningBlock{1, {0.5f}}};
  Result<BuildResult> Built = Model.build(Network, BuildMode::PreTrain,
                                          Info, "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built));
  // Trainable params all belong to the student prefix.
  const size_t StudentParams = Network.trainableParams().size();
  EXPECT_GT(StudentParams, 0u);
  Network.setTrainable("full.b0/m2_conv1", false);
  EXPECT_LT(Network.trainableParams().size(), StudentParams);
}

TEST(MultiplexingTest, PreTrainGradientsStayInStudent) {
  const ModelSpec Spec = resnetSpec();
  const MultiplexingModel Model(Spec);
  Graph Network;
  Rng Generator(6);
  PruneInfo Info;
  Info.Blocks = {TuningBlock{1, {0.5f}}};
  Result<BuildResult> Built = Model.build(Network, BuildMode::PreTrain,
                                          Info, "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built));

  Tensor Input(Shape{2, 3, 8, 8});
  Rng DataGen(7);
  for (size_t I = 0; I < Input.size(); ++I)
    Input[I] = DataGen.nextGaussian();
  ExecContext Ctx(Network);
  Ctx.setInput("data", Input);
  Ctx.forward(Network, true);
  Network.zeroGrads();
  Tensor Grad;
  const BlockPort &Port = Built->Ports[0];
  const double Loss =
      l2Reconstruction(Ctx.activation(Port.StudentOut),
                       Ctx.activation(Port.TeacherOut), Grad);
  EXPECT_GT(Loss, 0.0);
  Ctx.seedGradient(Port.StudentOut, Grad);
  Ctx.backward(Network);

  // Teacher gradients are untouched; student gradients are live.
  EXPECT_DOUBLE_EQ(
      Network.layer("full/m2_conv1").params()[0]->Grad.sum(), 0.0);
  EXPECT_NE(Network.layer("full.b0/m2_conv1").params()[0]->Grad.sum(),
            0.0);
}

TEST(MultiplexingTest, MultiModuleBlockSpansBoundaries) {
  const ModelSpec Spec = resnetSpec();
  const MultiplexingModel Model(Spec);
  Graph Network;
  Rng Generator(8);
  PruneInfo Info;
  Info.Blocks = {TuningBlock{1, {0.5f, 0.7f}}}; // Modules m2-m3.
  Result<BuildResult> Built = Model.build(Network, BuildMode::PreTrain,
                                          Info, "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  EXPECT_EQ(Built->Ports[0].TeacherOut, "full/m3_out");
  EXPECT_EQ(Built->Ports[0].Layers.size(),
            Model.blockLayerNames(Info.Blocks[0]).size());
  ExecContext Ctx(Network);
  Ctx.setInput("data", Tensor(Shape{1, 3, 8, 8}));
  Ctx.forward(Network, true);
  EXPECT_EQ(Ctx.activation("full.b0/m3_out").shape(),
            Shape({1, 12, 8, 8}));
}

TEST(MultiplexingTest, PreTrainRejectsOutOfRangeBlock) {
  const MultiplexingModel Model(resnetSpec());
  Graph Network;
  Rng Generator(9);
  PruneInfo Info;
  Info.Blocks = {TuningBlock{3, {0.5f, 0.5f}}}; // m4-m5 of a 4-module net.
  Result<BuildResult> Built = Model.build(Network, BuildMode::PreTrain,
                                          Info, "full", Generator);
  EXPECT_FALSE(static_cast<bool>(Built));
}

TEST(MultiplexingTest, InceptionPreTrainWorks) {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::InceptionA, 6);
  ASSERT_TRUE(static_cast<bool>(Spec));
  const MultiplexingModel Model(Spec.take());
  Graph Network;
  Rng Generator(10);
  PruneInfo Info;
  Info.Blocks = {TuningBlock{0, {0.7f}}, TuningBlock{2, {0.3f}}};
  Result<BuildResult> Built = Model.build(Network, BuildMode::PreTrain,
                                          Info, "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  ExecContext Ctx(Network);
  Ctx.setInput("data", Tensor(Shape{1, 3, 8, 8}));
  Ctx.forward(Network, true);
  for (const BlockPort &Port : Built->Ports)
    EXPECT_EQ(Ctx.activation(Port.StudentOut).shape(),
              Ctx.activation(Port.TeacherOut).shape());
}

//===----------------------------------------------------------------------===//
// Code generation
//===----------------------------------------------------------------------===//

TEST(CodegenTest, EmitsMultiplexingFunction) {
  const std::string Script = emitMultiplexingScript(resnetSpec());
  EXPECT_NE(Script.find("def mini_resnet_a(inputs, mode_to_use='full', "
                        "prune_info=None"),
            std::string::npos);
  EXPECT_NE(Script.find("slim.conv2d"), std::string::npos);
  EXPECT_NE(Script.find("mode_to_use != 'pretrain'"), std::string::npos);
  EXPECT_NE(Script.find("for block in prune_info.blocks:"),
            std::string::npos);
}

TEST(CodegenTest, PrunableConvsReadDepthFromPruneInfo) {
  const std::string Script = emitMultiplexingScript(resnetSpec());
  // Prunable conv m1_conv1 uses the depth() helper; unpruned m1_conv3
  // has a literal depth.
  EXPECT_NE(Script.find("depth('m1', 8)"), std::string::npos);
  EXPECT_NE(Script.find("12, [1, 1], stride=1, padding='VALID', "
                        "activation_fn=None, normalizer_fn=None, "
                        "biases_initializer=None, scope='m1_conv3')"),
            std::string::npos);
}

TEST(CodegenTest, BlockSectionGuardsByCoverage) {
  const std::string Script = emitMultiplexingScript(resnetSpec());
  EXPECT_NE(Script.find("if block.covers('m1'):"), std::string::npos);
  EXPECT_NE(Script.find("if block.ends_at('m4'):"), std::string::npos);
  EXPECT_NE(Script.find("tf.losses.mean_squared_error"),
            std::string::npos);
  EXPECT_NE(Script.find("tf.stop_gradient"), std::string::npos);
}

TEST(CodegenTest, InceptionUsesConcat) {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::InceptionA, 6);
  ASSERT_TRUE(static_cast<bool>(Spec));
  const std::string Script = emitMultiplexingScript(*Spec);
  EXPECT_NE(Script.find("tf.concat("), std::string::npos);
  EXPECT_NE(Script.find("slim.avg_pool2d"), std::string::npos);
}

TEST(CodegenTest, PythonIdentifier) {
  EXPECT_EQ(pythonIdentifier("mini-resnet-a"), "mini_resnet_a");
  EXPECT_EQ(pythonIdentifier("a.b c"), "a_b_c");
}

//===----------------------------------------------------------------------===//
// Solver meta data
//===----------------------------------------------------------------------===//

TEST(SolverTest, DefaultsSurviveEmptyInput) {
  Result<TrainMeta> Meta = parseTrainMeta("");
  ASSERT_TRUE(static_cast<bool>(Meta)) << Meta.message();
  EXPECT_EQ(Meta->BatchSize, 8);
  EXPECT_EQ(Meta->Nodes, 1);
}

TEST(SolverTest, ParsesAllKeys) {
  Result<TrainMeta> Meta = parseTrainMeta(
      "pretrain_steps: 33\nfinetune_lr: 0.01\nbatch_size: 16\n"
      "nodes: 4\nweight_decay: 1e-5\nmomentum: 0.8\nseed: 123\n"
      "full_model_steps: 99\nfinetune_steps: 44\npretrain_lr: 0.2\n"
      "eval_every: 10\n");
  ASSERT_TRUE(static_cast<bool>(Meta)) << Meta.message();
  EXPECT_EQ(Meta->PretrainSteps, 33);
  EXPECT_FLOAT_EQ(Meta->FinetuneLearningRate, 0.01f);
  EXPECT_EQ(Meta->BatchSize, 16);
  EXPECT_EQ(Meta->Nodes, 4);
  EXPECT_FLOAT_EQ(Meta->WeightDecay, 1e-5f);
  EXPECT_EQ(Meta->Seed, 123u);
  EXPECT_EQ(Meta->FullModelSteps, 99);
}

TEST(SolverTest, RejectsUnknownKeys) {
  Result<TrainMeta> Meta = parseTrainMeta("learning_rate_typo: 0.1\n");
  ASSERT_FALSE(static_cast<bool>(Meta));
  EXPECT_NE(Meta.message().find("unknown meta-data key"),
            std::string::npos);
}

TEST(SolverTest, RejectsNonPositiveBatch) {
  EXPECT_FALSE(static_cast<bool>(parseTrainMeta("batch_size: 0\n")));
}

TEST(SolverTest, RoundTripsThroughPrinter) {
  TrainMeta Meta;
  Meta.PretrainSteps = 77;
  Meta.Nodes = 3;
  Result<TrainMeta> Reparsed = parseTrainMeta(printTrainMeta(Meta));
  ASSERT_TRUE(static_cast<bool>(Reparsed)) << Reparsed.message();
  EXPECT_EQ(Reparsed->PretrainSteps, 77);
  EXPECT_EQ(Reparsed->Nodes, 3);
}

//===----------------------------------------------------------------------===//
// NetsFactory
//===----------------------------------------------------------------------===//

TEST(NetsFactoryTest, RegisterAndLookup) {
  NetsFactory Factory;
  Result<std::string> Name = Factory.registerModel(
      standardModelPrototxt(StandardModel::ResNetA, 6));
  ASSERT_TRUE(static_cast<bool>(Name)) << Name.message();
  EXPECT_EQ(*Name, "mini-resnet-a");
  ASSERT_NE(Factory.lookup("mini-resnet-a"), nullptr);
  EXPECT_EQ(Factory.lookup("mini-resnet-a")->spec().moduleCount(), 4);
  EXPECT_EQ(Factory.lookup("unknown"), nullptr);
}

TEST(NetsFactoryTest, RejectsDuplicates) {
  NetsFactory Factory;
  ASSERT_TRUE(static_cast<bool>(Factory.registerModel(
      standardModelPrototxt(StandardModel::ResNetA, 6))));
  Result<std::string> Again = Factory.registerModel(
      standardModelPrototxt(StandardModel::ResNetA, 6));
  EXPECT_FALSE(static_cast<bool>(Again));
}

TEST(NetsFactoryTest, RejectsBadPrototxt) {
  NetsFactory Factory;
  EXPECT_FALSE(static_cast<bool>(Factory.registerModel("garbage {{")));
}

TEST(NetsFactoryTest, NamesInRegistrationOrder) {
  NetsFactory Factory;
  ASSERT_TRUE(static_cast<bool>(Factory.registerModel(
      standardModelPrototxt(StandardModel::ResNetA, 6))));
  ASSERT_TRUE(static_cast<bool>(Factory.registerModel(
      standardModelPrototxt(StandardModel::InceptionA, 6))));
  const std::vector<std::string> Names = Factory.names();
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "mini-resnet-a");
  EXPECT_EQ(Names[1], "mini-inception-a");
}

} // namespace

//===----------------------------------------------------------------------===//
// Wrapper-script generation (appended tests)
//===----------------------------------------------------------------------===//

namespace {

TEST(CodegenTest, PretrainWrapperEmbedsMetaData) {
  wootz::TrainMeta Meta;
  Meta.PretrainSteps = 123;
  Meta.PretrainLearningRate = 0.25f;
  Meta.Nodes = 4;
  const std::string Script =
      wootz::emitPretrainWrapper(resnetSpec(), Meta);
  EXPECT_NE(Script.find("MODEL_NAME = 'mini_resnet_a'"),
            std::string::npos);
  EXPECT_NE(Script.find("MAX_STEPS = 123"), std::string::npos);
  EXPECT_NE(Script.find("LEARNING_RATE = 0.2500"), std::string::npos);
  EXPECT_NE(Script.find("NODES = 4"), std::string::npos);
  EXPECT_NE(Script.find("partition_into_groups"), std::string::npos);
  EXPECT_NE(Script.find("if index % NODES != rank:"), std::string::npos);
  // The model/context split shows up in the generated code: one shared
  // teacher, per-group contexts, sharded evaluation.
  EXPECT_NE(Script.find("build_shared_teacher"), std::string::npos);
  EXPECT_NE(Script.find("eval_threads=EVAL_THREADS"), std::string::npos);
}

TEST(CodegenTest, ExplorationWrapperEmbedsObjective) {
  wootz::TrainMeta Meta;
  Meta.FinetuneSteps = 77;
  const std::string Script = wootz::emitExplorationWrapper(
      resnetSpec(), Meta, "min ModelSize\nconstraint Accuracy > 0.8\n");
  EXPECT_NE(Script.find("#   min ModelSize"), std::string::npos);
  EXPECT_NE(Script.find("#   constraint Accuracy > 0.8"),
            std::string::npos);
  EXPECT_NE(Script.find("MAX_STEPS = 77"), std::string::npos);
  EXPECT_NE(Script.find("ordered[rank::NODES]"), std::string::npos);
  EXPECT_NE(Script.find("order_by_model_size"), std::string::npos);
  // The winner is frozen into a static plan, and evaluation shards
  // across contexts — the generated flow mirrors the C++ pipeline.
  EXPECT_NE(Script.find("explore.freeze_plan(net, 'plan.json')"),
            std::string::npos);
  EXPECT_NE(Script.find("eval_threads=EVAL_THREADS"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// GraphBuilder: spec -> runnable network, weight export/import
//===----------------------------------------------------------------------===//

/// Deterministic pseudo-random input batch.
static Tensor randomInput(const ModelSpec &Spec, int Batch,
                          uint64_t Seed) {
  Tensor Input(Shape{Batch, Spec.InputChannels, Spec.InputHeight,
                     Spec.InputWidth});
  Rng Generator(Seed);
  for (size_t I = 0; I < Input.size(); ++I)
    Input.data()[I] = Generator.nextFloat() * 2.0f - 1.0f;
  return Input;
}

/// Logits of \p Built on \p Input.
static Tensor forwardLogits(BuiltNetwork &Built, const Tensor &Input) {
  ExecContext Ctx(Built.Network);
  Ctx.setInput(Built.InputNode, Input);
  Ctx.forward(Built.Network, false);
  return Ctx.activation(Built.LogitsNode);
}

TEST(GraphBuilderTest, BuildsEveryStandardModel) {
  for (StandardModel Model : standardModels()) {
    Result<ModelSpec> Spec = makeStandardModel(Model, 5);
    ASSERT_TRUE(static_cast<bool>(Spec)) << Spec.message();
    Result<BuiltNetwork> Built = buildFullNetwork(*Spec, 11);
    ASSERT_TRUE(static_cast<bool>(Built))
        << standardModelName(Model) << ": " << Built.message();
    EXPECT_EQ(Built->Classes, 5) << standardModelName(Model);
    const Tensor Logits = forwardLogits(*Built, randomInput(*Spec, 2, 3));
    EXPECT_EQ(Logits.shape(), Shape({2, 5})) << standardModelName(Model);
  }
}

TEST(GraphBuilderTest, ExportImportRoundTripsExactly) {
  const ModelSpec Spec = resnetSpec();
  Result<BuiltNetwork> Source = buildFullNetwork(Spec, 101);
  Result<BuiltNetwork> Target = buildFullNetwork(Spec, 202);
  ASSERT_TRUE(static_cast<bool>(Source)) << Source.message();
  ASSERT_TRUE(static_cast<bool>(Target)) << Target.message();

  const Tensor Input = randomInput(Spec, 2, 5);
  const Tensor Expected = forwardLogits(*Source, Input);
  const Tensor Before = forwardLogits(*Target, Input);
  // Different seeds genuinely diverge; otherwise the import below would
  // be vacuous.
  bool Differs = false;
  for (size_t I = 0; I < Expected.size(); ++I)
    Differs |= Expected.data()[I] != Before.data()[I];
  ASSERT_TRUE(Differs);

  // Serialize through the WOOTZCK2 container, as uploads do.
  Result<TensorBundle> Bundle = deserializeTensors(serializeTensors(
      exportWeights(Source->Network, FullNetworkPrefix)));
  ASSERT_TRUE(static_cast<bool>(Bundle)) << Bundle.message();
  Error Imported =
      importWeights(Target->Network, FullNetworkPrefix, *Bundle);
  ASSERT_FALSE(static_cast<bool>(Imported)) << Imported.message();

  const Tensor After = forwardLogits(*Target, Input);
  ASSERT_EQ(After.shape(), Expected.shape());
  for (size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Expected.data()[I], After.data()[I]) << "logit " << I;
}

TEST(GraphBuilderTest, ImportRejectsMissingEntries) {
  const ModelSpec Spec = resnetSpec();
  Result<BuiltNetwork> Built = buildFullNetwork(Spec, 1);
  ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  TensorBundle Bundle = exportWeights(Built->Network, FullNetworkPrefix);
  ASSERT_FALSE(Bundle.empty());
  Bundle.erase(Bundle.begin());
  Error E = importWeights(Built->Network, FullNetworkPrefix, Bundle);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("missing"), std::string::npos)
      << E.message();
}

TEST(GraphBuilderTest, ImportRejectsShapeMismatch) {
  const ModelSpec Spec = resnetSpec();
  Result<BuiltNetwork> Built = buildFullNetwork(Spec, 1);
  ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  TensorBundle Bundle = exportWeights(Built->Network, FullNetworkPrefix);
  Bundle.begin()->second = Tensor(Shape{1, 2, 3});
  Error E = importWeights(Built->Network, FullNetworkPrefix, Bundle);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("[1, 2, 3]"), std::string::npos)
      << E.message();
}

TEST(GraphBuilderTest, ImportRejectsUnknownEntries) {
  const ModelSpec Spec = resnetSpec();
  Result<BuiltNetwork> Built = buildFullNetwork(Spec, 1);
  ASSERT_TRUE(static_cast<bool>(Built)) << Built.message();
  TensorBundle Bundle = exportWeights(Built->Network, FullNetworkPrefix);
  Bundle["ghost_layer/s0"] = Tensor(Shape{1});
  Error E = importWeights(Built->Network, FullNetworkPrefix, Bundle);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("ghost_layer"), std::string::npos)
      << E.message();
}

TEST(GraphBuilderTest, RequiresAClassifierHead) {
  Result<ModelSpec> Spec = parseModelSpec(
      "name: \"headless\"\ninput: \"data\"\ninput_dim: 1\n"
      "input_dim: 3\ninput_dim: 8\ninput_dim: 8\n"
      "layer { name: \"a\" type: \"ReLU\" bottom: \"data\" top: \"a\" }");
  ASSERT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  Result<BuiltNetwork> Built = buildFullNetwork(*Spec, 1);
  ASSERT_FALSE(static_cast<bool>(Built));
  EXPECT_NE(Built.message().find("InnerProduct"), std::string::npos);
}

} // namespace
