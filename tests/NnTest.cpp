//===- tests/NnTest.cpp - nn/ unit tests -------------------------------------===//

#include "src/nn/Graph.h"
#include "src/nn/Layers.h"
#include "src/nn/Loss.h"
#include "src/nn/Optimizer.h"
#include "src/nn/Serialize.h"
#include "src/support/Rng.h"
#include "src/tensor/Kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

using namespace wootz;

namespace {

//===----------------------------------------------------------------------===//
// Layer shape inference
//===----------------------------------------------------------------------===//

TEST(LayerShapeTest, ConvSamePadding) {
  Conv2D Conv(ConvGeometry{3, 8, 3, 1, 1});
  EXPECT_EQ(Conv.outputShape({Shape{2, 3, 8, 8}}), Shape({2, 8, 8, 8}));
}

TEST(LayerShapeTest, ConvStrideTwo) {
  Conv2D Conv(ConvGeometry{3, 4, 3, 2, 1});
  EXPECT_EQ(Conv.outputShape({Shape{1, 3, 8, 8}}), Shape({1, 4, 4, 4}));
}

TEST(LayerShapeTest, PoolAndGlobalPool) {
  Pool2D Pool(Pool2D::Mode::Max, 2, 2);
  EXPECT_EQ(Pool.outputShape({Shape{1, 4, 8, 8}}), Shape({1, 4, 4, 4}));
  GlobalAvgPool Gap;
  EXPECT_EQ(Gap.outputShape({Shape{1, 4, 8, 8}}), Shape({1, 4, 1, 1}));
}

TEST(LayerShapeTest, ConcatSumsChannels) {
  Concat Cat;
  EXPECT_EQ(Cat.outputShape({Shape{1, 2, 4, 4}, Shape{1, 3, 4, 4}}),
            Shape({1, 5, 4, 4}));
}

TEST(LayerShapeTest, DenseFlattens) {
  Dense Fc(2 * 4 * 4, 10);
  EXPECT_EQ(Fc.outputShape({Shape{3, 2, 4, 4}}), Shape({3, 10}));
}

TEST(LayerTest, ParamCounts) {
  Conv2D Conv(ConvGeometry{3, 8, 3, 1, 1}, /*HasBias=*/true);
  EXPECT_EQ(Conv.paramCount(), 3u * 8 * 9 + 8);
  Conv2D NoBias(ConvGeometry{3, 8, 3, 1, 1}, /*HasBias=*/false);
  EXPECT_EQ(NoBias.paramCount(), 3u * 8 * 9);
  Dense Fc(12, 5);
  EXPECT_EQ(Fc.paramCount(), 12u * 5 + 5);
  BatchNorm2D Bn(6);
  EXPECT_EQ(Bn.paramCount(), 12u); // Gamma + beta; running stats excluded.
  EXPECT_EQ(Bn.state().size(), 4u);
}

//===----------------------------------------------------------------------===//
// Layer forward semantics
//===----------------------------------------------------------------------===//

TEST(LayerForwardTest, ReluClampsNegatives) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("relu", std::make_unique<ReLU>(), {"x"});
  Tensor In(Shape{1, 1, 1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  Ctx.forward(Network, false);
  const Tensor &Out = Ctx.activation("relu");
  EXPECT_FLOAT_EQ(Out[0], 0.0f);
  EXPECT_FLOAT_EQ(Out[2], 2.0f);
  EXPECT_FLOAT_EQ(Out[3], 0.0f);
}

TEST(LayerForwardTest, MaxPoolPicksMaximum) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("pool", std::make_unique<Pool2D>(Pool2D::Mode::Max, 2, 2),
                  {"x"});
  Tensor In(Shape{1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  Ctx.forward(Network, false);
  EXPECT_FLOAT_EQ(Ctx.activation("pool")[0], 5.0f);
}

TEST(LayerForwardTest, GlobalAvgPoolAverages) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("gap", std::make_unique<GlobalAvgPool>(), {"x"});
  Tensor In(Shape{1, 2, 1, 2}, {1.0f, 3.0f, 10.0f, 20.0f});
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  Ctx.forward(Network, false);
  EXPECT_FLOAT_EQ(Ctx.activation("gap")[0], 2.0f);
  EXPECT_FLOAT_EQ(Ctx.activation("gap")[1], 15.0f);
}

TEST(LayerForwardTest, ConvIdentityKernel) {
  // 1x1 conv with identity weights reproduces the input.
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv",
                  std::make_unique<Conv2D>(ConvGeometry{2, 2, 1, 1, 0}),
                  {"x"});
  auto &Conv = static_cast<Conv2D &>(Network.layer("conv"));
  Conv.weight().Value.at(0, 0, 0, 0) = 1.0f;
  Conv.weight().Value.at(1, 1, 0, 0) = 1.0f;
  Tensor In(Shape{1, 2, 2, 2},
            {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f});
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  Ctx.forward(Network, false);
  const Tensor &Out = Ctx.activation("conv");
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_FLOAT_EQ(Out[I], In[I]);
}

TEST(LayerForwardTest, BatchNormNormalizesInTraining) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("bn", std::make_unique<BatchNorm2D>(1), {"x"});
  Tensor In(Shape{1, 1, 2, 2}, {2.0f, 4.0f, 6.0f, 8.0f});
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  Ctx.forward(Network, true);
  const Tensor &Out = Ctx.activation("bn");
  // Default gamma=1, beta=0: output has zero mean and unit variance.
  double Mean = 0.0;
  for (size_t I = 0; I < Out.size(); ++I)
    Mean += Out[I];
  EXPECT_NEAR(Mean / Out.size(), 0.0, 1e-5);
  double Var = 0.0;
  for (size_t I = 0; I < Out.size(); ++I)
    Var += Out[I] * Out[I];
  EXPECT_NEAR(Var / Out.size(), 1.0, 1e-3);
}

TEST(LayerForwardTest, BatchNormUsesRunningStatsInEval) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("bn", std::make_unique<BatchNorm2D>(1), {"x"});
  auto &Bn = static_cast<BatchNorm2D &>(Network.layer("bn"));
  Bn.runningMean().Value[0] = 1.0f;
  Bn.runningVar().Value[0] = 4.0f;
  Tensor In(Shape{1, 1, 1, 1}, {5.0f});
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  Ctx.forward(Network, false);
  // (5 - 1) / sqrt(4 + eps) ~= 2.
  EXPECT_NEAR(Ctx.activation("bn")[0], 2.0f, 1e-3);
}

//===----------------------------------------------------------------------===//
// Graph mechanics
//===----------------------------------------------------------------------===//

static std::unique_ptr<Conv2D> tinyConv(int In, int Out) {
  return std::make_unique<Conv2D>(ConvGeometry{In, Out, 1, 1, 0});
}

TEST(GraphTest, TopologicalExecutionAndActivations) {
  Rng Generator(1);
  Graph Network;
  Network.addInput("x");
  Network.addNode("a", tinyConv(1, 2), {"x"});
  Network.addNode("b", tinyConv(2, 3), {"a"});
  Network.initParams(Generator);
  ExecContext Ctx(Network);
  Ctx.setInput("x", Tensor(Shape{1, 1, 2, 2}));
  Ctx.forward(Network, false);
  EXPECT_EQ(Ctx.activation("a").shape(), Shape({1, 2, 2, 2}));
  EXPECT_EQ(Ctx.activation("b").shape(), Shape({1, 3, 2, 2}));
}

TEST(GraphTest, NodeNamesInOrder) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("a", tinyConv(1, 1), {"x"});
  const std::vector<std::string> Names = Network.nodeNames();
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "x");
  EXPECT_EQ(Names[1], "a");
  EXPECT_TRUE(Network.hasNode("a"));
  EXPECT_FALSE(Network.hasNode("zzz"));
}

TEST(GraphTest, FrozenNodesExcludedFromTrainableParams) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("a", tinyConv(1, 2), {"x"});
  Network.addNode("b", tinyConv(2, 3), {"a"});
  EXPECT_EQ(Network.trainableParams().size(), 4u); // 2 convs x (W, b).
  Network.setTrainable("a", false);
  EXPECT_EQ(Network.trainableParams().size(), 2u);
  Network.setAllTrainable(false);
  EXPECT_TRUE(Network.trainableParams().empty());
}

TEST(GraphTest, BackwardStopsAtFrozenSubgraph) {
  // teacher (frozen) -> student; gradient seeded at the student must not
  // touch the teacher's gradients.
  Rng Generator(2);
  Graph Network;
  Network.addInput("x");
  Network.addNode("teacher", tinyConv(1, 2), {"x"});
  Network.addNode("student", tinyConv(2, 2), {"teacher"});
  Network.initParams(Generator);
  Network.setTrainable("teacher", false);

  ExecContext Ctx(Network);
  Ctx.setInput("x", Tensor(Shape{1, 1, 2, 2}, {1, 2, 3, 4}));
  Ctx.forward(Network, true);
  Network.zeroGrads();
  Tensor Seed(Ctx.activation("student").shape());
  Seed.fill(1.0f);
  Ctx.seedGradient("student", Seed);
  Ctx.backward(Network);

  auto &Teacher = static_cast<Conv2D &>(Network.layer("teacher"));
  auto &Student = static_cast<Conv2D &>(Network.layer("student"));
  EXPECT_DOUBLE_EQ(Teacher.weight().Grad.sum(), 0.0);
  EXPECT_NE(Student.weight().Grad.sum(), 0.0);
}

TEST(GraphTest, GradientsAccumulateAcrossConsumers) {
  // A node consumed twice receives the sum of both consumers' grads.
  Rng Generator(3);
  Graph Network;
  Network.addInput("x");
  Network.addNode("a", tinyConv(1, 2), {"x"});
  Network.addNode("sum", std::make_unique<Add>(), {"a", "a"});
  Network.initParams(Generator);
  ExecContext Ctx(Network);
  Ctx.setInput("x", Tensor(Shape{1, 1, 1, 1}, {1.0f}));
  Ctx.forward(Network, true);
  Network.zeroGrads();
  Tensor Seed(Ctx.activation("sum").shape());
  Seed.fill(1.0f);
  Ctx.seedGradient("sum", Seed);
  Ctx.backward(Network);
  auto &A = static_cast<Conv2D &>(Network.layer("a"));
  // dL/dbias = 2 (each output channel used twice with grad 1).
  EXPECT_FLOAT_EQ(A.bias()->Grad[0], 2.0f);
}

TEST(GraphTest, ParamCountSumsLayers) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("a", tinyConv(1, 2), {"x"}); // 1*2*1 + 2 = 4.
  Network.addNode("fc", std::make_unique<Dense>(2, 3), {"a"}); // 6+3.
  EXPECT_EQ(Network.paramCount(), 13u);
}

TEST(GraphTest, NamedStateUsesStableKeys) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("bn", std::make_unique<BatchNorm2D>(2), {"x"});
  const auto State = Network.namedState();
  EXPECT_EQ(State.size(), 4u);
  EXPECT_TRUE(State.count("bn/s0"));
  EXPECT_TRUE(State.count("bn/s3"));
}

//===----------------------------------------------------------------------===//
// Optimizer
//===----------------------------------------------------------------------===//

TEST(OptimizerTest, PlainSgdStep) {
  Param P(Shape{2});
  P.Value[0] = 1.0f;
  P.Grad[0] = 0.5f;
  SgdOptimizer Optimizer(0.1f, /*Momentum=*/0.0f);
  Optimizer.step({&P});
  EXPECT_NEAR(P.Value[0], 0.95f, 1e-6);
}

TEST(OptimizerTest, MomentumAccumulates) {
  Param P(Shape{1});
  P.Grad[0] = 1.0f;
  SgdOptimizer Optimizer(1.0f, /*Momentum=*/0.5f);
  Optimizer.step({&P}); // v=1, x=-1.
  Optimizer.step({&P}); // v=1.5, x=-2.5.
  EXPECT_NEAR(P.Value[0], -2.5f, 1e-6);
}

TEST(OptimizerTest, WeightDecayPullsTowardZero) {
  Param P(Shape{1});
  P.Value[0] = 10.0f;
  SgdOptimizer Optimizer(0.1f, /*Momentum=*/0.0f, /*WeightDecay=*/0.1f);
  Optimizer.step({&P}); // update = 0 + 0.1*10 = 1; x = 10 - 0.1.
  EXPECT_NEAR(P.Value[0], 9.9f, 1e-5);
}

TEST(OptimizerTest, ConvergesOnQuadratic) {
  // Minimize f(x) = 0.5*(x-3)^2 by hand-computed gradients.
  Param P(Shape{1});
  SgdOptimizer Optimizer(0.2f, 0.5f);
  for (int Step = 0; Step < 100; ++Step) {
    P.Grad[0] = P.Value[0] - 3.0f;
    Optimizer.step({&P});
  }
  EXPECT_NEAR(P.Value[0], 3.0f, 1e-3);
}

//===----------------------------------------------------------------------===//
// Loss helpers
//===----------------------------------------------------------------------===//

TEST(LossTest, CrossEntropyOfUniformLogits) {
  Tensor Logits(Shape{2, 4}); // All-zero logits: loss = ln(4).
  Tensor Grad;
  const double Loss = softmaxCrossEntropy(Logits, {0, 1}, Grad);
  EXPECT_NEAR(Loss, std::log(4.0), 1e-6);
}

TEST(LossTest, AccuracyFromLogits) {
  Tensor Logits(Shape{2, 3}, {0.1f, 0.9f, 0.0f, 0.8f, 0.1f, 0.1f});
  EXPECT_DOUBLE_EQ(accuracyFromLogits(Logits, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(accuracyFromLogits(Logits, {0, 0}), 0.5);
}

TEST(LossTest, L2ReconstructionOfEqualTensorsIsZero) {
  Tensor A(Shape{3}, {1, 2, 3});
  Tensor Grad;
  EXPECT_DOUBLE_EQ(l2Reconstruction(A, A, Grad), 0.0);
  EXPECT_DOUBLE_EQ(Grad.sum(), 0.0);
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

TEST(SerializeTest, RoundTripInMemory) {
  TensorBundle Bundle;
  Bundle["a/w"] = Tensor(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Bundle["b"] = Tensor(Shape{1}, {-7.5f});
  const std::string Bytes = serializeTensors(Bundle);
  Result<TensorBundle> Loaded = deserializeTensors(Bytes);
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.message();
  EXPECT_EQ(Loaded->size(), 2u);
  EXPECT_EQ((*Loaded)["a/w"].shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ((*Loaded)["a/w"][5], 6.0f);
  EXPECT_FLOAT_EQ((*Loaded)["b"][0], -7.5f);
}

TEST(SerializeTest, RejectsGarbage) {
  EXPECT_FALSE(static_cast<bool>(deserializeTensors("not a checkpoint")));
  EXPECT_FALSE(static_cast<bool>(deserializeTensors("")));
}

TEST(SerializeTest, RejectsTruncation) {
  TensorBundle Bundle;
  Bundle["x"] = Tensor(Shape{8}, std::vector<float>(8, 1.0f));
  std::string Bytes = serializeTensors(Bundle);
  Bytes.resize(Bytes.size() - 4);
  EXPECT_FALSE(static_cast<bool>(deserializeTensors(Bytes)));
}

TEST(SerializeTest, FileRoundTrip) {
  const std::string Path =
      (std::filesystem::temp_directory_path() / "wootz_serialize_test.ckpt")
          .string();
  TensorBundle Bundle;
  Bundle["w"] = Tensor(Shape{2, 2}, {1, 2, 3, 4});
  Error SaveErr = saveTensors(Path, Bundle);
  ASSERT_FALSE(static_cast<bool>(SaveErr)) << SaveErr.message();
  Result<TensorBundle> Loaded = loadTensors(Path);
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.message();
  EXPECT_FLOAT_EQ((*Loaded)["w"][3], 4.0f);
  std::remove(Path.c_str());
}

} // namespace

//===----------------------------------------------------------------------===//
// Dropout (appended tests)
//===----------------------------------------------------------------------===//

namespace {

TEST(DropoutTest, EvalModeIsIdentity) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("drop", std::make_unique<Dropout>(0.5f), {"x"});
  Tensor In(Shape{1, 1, 2, 2}, {1.0f, -2.0f, 3.0f, 4.0f});
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  Ctx.forward(Network, /*Training=*/false);
  const Tensor &Out = Ctx.activation("drop");
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_FLOAT_EQ(Out[I], In[I]);
}

TEST(DropoutTest, TrainingDropsRoughlyDropRate) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("drop", std::make_unique<Dropout>(0.3f, /*Seed=*/5),
                  {"x"});
  Tensor In(Shape{1, 1, 40, 40});
  In.fill(1.0f);
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  Ctx.forward(Network, /*Training=*/true);
  const Tensor &Out = Ctx.activation("drop");
  int Zeros = 0;
  for (size_t I = 0; I < Out.size(); ++I) {
    if (Out[I] == 0.0f)
      ++Zeros;
    else
      EXPECT_NEAR(Out[I], 1.0f / 0.7f, 1e-5); // Inverted scaling.
  }
  const double ZeroFraction = static_cast<double>(Zeros) / Out.size();
  EXPECT_NEAR(ZeroFraction, 0.3, 0.05);
  // Expectation preserved: mean stays near 1.
  EXPECT_NEAR(Out.mean(), 1.0, 0.08);
}

TEST(DropoutTest, BackwardMasksSamePositions) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv", tinyConv(1, 1), {"x"});
  Network.addNode("drop", std::make_unique<Dropout>(0.5f, /*Seed=*/6),
                  {"conv"});
  auto &Conv = static_cast<Conv2D &>(Network.layer("conv"));
  Conv.weight().Value[0] = 1.0f; // Identity 1x1 conv.

  Tensor In(Shape{1, 1, 4, 4});
  In.fill(1.0f);
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  Ctx.forward(Network, /*Training=*/true);
  const Tensor Out = Ctx.activation("drop");

  Network.zeroGrads();
  Tensor Seed(Out.shape());
  Seed.fill(1.0f);
  Ctx.seedGradient("drop", Seed);
  Ctx.backward(Network);
  // dL/dbias of the conv sums the mask: equals the number of survivors
  // times the inverted scale.
  int Survivors = 0;
  for (size_t I = 0; I < Out.size(); ++I)
    Survivors += Out[I] != 0.0f;
  EXPECT_NEAR(Conv.bias()->Grad[0], Survivors * 2.0f, 1e-4);
}

TEST(DropoutTest, ZeroRateIsAlwaysIdentity) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("drop", std::make_unique<Dropout>(0.0f), {"x"});
  Tensor In(Shape{1, 1, 2, 2}, {5.0f, 6.0f, 7.0f, 8.0f});
  ExecContext Ctx(Network);
  Ctx.setInput("x", In);
  Ctx.forward(Network, /*Training=*/true);
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_FLOAT_EQ(Ctx.activation("drop")[I], In[I]);
}

} // namespace

//===----------------------------------------------------------------------===//
// Dot export (appended tests)
//===----------------------------------------------------------------------===//

namespace {

TEST(GraphDotTest, EmitsNodesEdgesAndFreezeStyle) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("a", tinyConv(1, 2), {"x"});
  Network.addNode("b", tinyConv(2, 1), {"a"});
  Network.setTrainable("a", false);
  const std::string Dot = Network.toDot("demo");
  EXPECT_NE(Dot.find("digraph \"demo\""), std::string::npos);
  EXPECT_NE(Dot.find("\"x\" -> \"a\""), std::string::npos);
  EXPECT_NE(Dot.find("\"a\" -> \"b\""), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos); // Frozen a.
  EXPECT_NE(Dot.find("shape=ellipse"), std::string::npos); // Input x.
  // Conv "a": 1*2*1*1 weights + 2 bias = 4 params in the label.
  EXPECT_NE(Dot.find("conv (4)"), std::string::npos);
}

} // namespace

//===----------------------------------------------------------------------===//
// Conv2D eval scratch (appended tests)
//===----------------------------------------------------------------------===//

namespace {

/// An eval forward must not keep the full-batch im2col buffer that a
/// training forward left behind.
TEST(KernelConvTest, EvalForwardMatchesTrainingAndReleasesScratch) {
  Conv2D Conv(ConvGeometry{2, 4, 3, 1, 1});
  Rng Generator(11);
  Conv.initParams(Generator);
  Tensor In(Shape{3, 2, 6, 6});
  for (size_t I = 0; I < In.size(); ++I)
    In[I] = Generator.nextGaussian();
  const std::vector<const Tensor *> Inputs{&In};
  Tensor Out(Conv.outputShape({In.shape()}));
  LayerScratch Scratch;

  // Training forward materializes the full-batch im2col buffer (needed
  // by backward)...
  Conv.forward(Inputs, Out, Scratch, /*Training=*/true);
  ASSERT_FALSE(Scratch.Buffers.empty());
  EXPECT_GT(Scratch.Buffers[0].size(), 0u);
  const Tensor TrainingOut = Out;

  // ...and an eval forward releases it again. Eval always runs the
  // fused blocked engine while a tiny training GEMM like this one uses
  // the reference loops, so the two agree to summation-order rounding,
  // not bit-for-bit.
  Conv.forward(Inputs, Out, Scratch, /*Training=*/false);
  ASSERT_FALSE(Scratch.Buffers.empty());
  EXPECT_EQ(Scratch.Buffers[0].size(), 0u)
      << "eval forward should drop the full-batch im2col buffer";
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_NEAR(Out[I], TrainingOut[I], 1e-5f);
}

} // namespace
