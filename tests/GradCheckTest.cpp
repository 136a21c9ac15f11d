//===- tests/GradCheckTest.cpp - numeric gradient checks -------------------------===//
//
// Verifies every layer's backward pass against central finite
// differences, both for parameters and for input gradients, through a
// small Graph ending in a scalar loss. This is the correctness anchor of
// the whole nn substrate: if these pass, training dynamics are
// trustworthy.
//
//===----------------------------------------------------------------------===//

#include "src/nn/Graph.h"
#include "src/nn/Layers.h"
#include "src/nn/Loss.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

using namespace wootz;

namespace {

/// Harness: builds a graph with one input, runs forward to \p OutNode,
/// computes scalar loss L = 0.5*sum(out^2), backprops, and compares every
/// trainable parameter gradient against central differences.
class GradCheck {
public:
  GradCheck(Graph &Network, std::string InputNode, std::string OutNode,
            Tensor Input)
      : Network(Network), Ctx(Network), InputNode(std::move(InputNode)),
        OutNode(std::move(OutNode)), Input(std::move(Input)) {}

  /// L = 0.5 * sum(out_i^2); dL/dout = out.
  double loss(bool Training = true) {
    Ctx.setInput(InputNode, Input);
    Ctx.forward(Network, Training);
    const Tensor &Out = Ctx.activation(OutNode);
    double Total = 0.0;
    for (size_t I = 0; I < Out.size(); ++I)
      Total += 0.5 * static_cast<double>(Out[I]) * Out[I];
    return Total;
  }

  void backprop() {
    const double Unused = loss();
    (void)Unused;
    Network.zeroGrads();
    const Tensor &Out = Ctx.activation(OutNode);
    Tensor Seed(Out.shape());
    for (size_t I = 0; I < Out.size(); ++I)
      Seed[I] = Out[I];
    Ctx.seedGradient(OutNode, Seed);
    Ctx.backward(Network);
  }

  /// Checks all parameters of \p NodeName (sub-sampled for big tensors).
  void checkParams(const std::string &NodeName, double Tolerance = 2e-2) {
    backprop();
    for (Param *P : Network.layer(NodeName).params()) {
      // Snapshot analytic gradients before perturbing.
      std::vector<float> Analytic(P->Grad.data(),
                                  P->Grad.data() + P->Grad.size());
      const size_t Stride = P->Value.size() > 64 ? P->Value.size() / 37 : 1;
      for (size_t I = 0; I < P->Value.size(); I += Stride) {
        const float Saved = P->Value[I];
        const float Eps = 1e-3f;
        P->Value[I] = Saved + Eps;
        const double Plus = loss();
        P->Value[I] = Saved - Eps;
        const double Minus = loss();
        P->Value[I] = Saved;
        const double Numeric = (Plus - Minus) / (2.0 * Eps);
        EXPECT_NEAR(Analytic[I], Numeric,
                    Tolerance * (1.0 + std::fabs(Numeric)))
            << NodeName << " param grad at flat index " << I;
      }
    }
  }

private:
  Graph &Network;
  ExecContext Ctx;
  std::string InputNode;
  std::string OutNode;
  Tensor Input;
};

static Tensor randomTensor(Shape S, Rng &Generator) {
  Tensor T(std::move(S));
  for (size_t I = 0; I < T.size(); ++I)
    T[I] = Generator.nextGaussian();
  return T;
}

TEST(GradCheckTest, Conv2DWeightsAndBias) {
  Rng Generator(31);
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv",
                  std::make_unique<Conv2D>(ConvGeometry{3, 4, 3, 1, 1}),
                  {"x"});
  Network.layer("conv").initParams(Generator);
  GradCheck Check(Network, "x", "conv",
                  randomTensor(Shape{2, 3, 5, 5}, Generator));
  Check.checkParams("conv");
}

TEST(GradCheckTest, Conv2DStridedNoPad) {
  Rng Generator(32);
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv",
                  std::make_unique<Conv2D>(ConvGeometry{2, 3, 3, 2, 0}),
                  {"x"});
  Network.layer("conv").initParams(Generator);
  GradCheck Check(Network, "x", "conv",
                  randomTensor(Shape{2, 2, 7, 7}, Generator));
  Check.checkParams("conv");
}

TEST(GradCheckTest, ConvInputGradientThroughStack) {
  // Two convs back to back: checks the col2im input-gradient path by
  // perturbing the *first* conv's weights (its gradient depends on the
  // second conv's input gradient).
  Rng Generator(33);
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv1",
                  std::make_unique<Conv2D>(ConvGeometry{2, 3, 3, 1, 1}),
                  {"x"});
  Network.addNode("conv2",
                  std::make_unique<Conv2D>(ConvGeometry{3, 2, 3, 1, 1}),
                  {"conv1"});
  Network.layer("conv1").initParams(Generator);
  Network.layer("conv2").initParams(Generator);
  GradCheck Check(Network, "x", "conv2",
                  randomTensor(Shape{2, 2, 5, 5}, Generator));
  Check.checkParams("conv1");
}

TEST(GradCheckTest, DenseWeightsAndBias) {
  Rng Generator(34);
  Graph Network;
  Network.addInput("x");
  Network.addNode("fc", std::make_unique<Dense>(12, 5), {"x"});
  Network.layer("fc").initParams(Generator);
  GradCheck Check(Network, "x", "fc",
                  randomTensor(Shape{3, 12}, Generator));
  Check.checkParams("fc");
}

TEST(GradCheckTest, DenseFlattensConvOutput) {
  Rng Generator(35);
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv",
                  std::make_unique<Conv2D>(ConvGeometry{2, 3, 1, 1, 0}),
                  {"x"});
  Network.addNode("fc", std::make_unique<Dense>(3 * 4 * 4, 2), {"conv"});
  Network.layer("conv").initParams(Generator);
  Network.layer("fc").initParams(Generator);
  GradCheck Check(Network, "x", "fc",
                  randomTensor(Shape{2, 2, 4, 4}, Generator));
  Check.checkParams("conv");
}

TEST(GradCheckTest, BatchNormGammaBeta) {
  Rng Generator(36);
  Graph Network;
  Network.addInput("x");
  Network.addNode("bn", std::make_unique<BatchNorm2D>(3), {"x"});
  // Break the gamma=1/beta=0 symmetry so gradients are informative.
  Layer &Bn = Network.layer("bn");
  for (size_t I = 0; I < Bn.params()[0]->Value.size(); ++I)
    Bn.params()[0]->Value[I] = 0.5f + 0.3f * I;
  GradCheck Check(Network, "x", "bn",
                  randomTensor(Shape{4, 3, 3, 3}, Generator));
  Check.checkParams("bn");
}

TEST(GradCheckTest, BatchNormInputGradient) {
  // Conv below a batchnorm: the conv's weight gradients exercise the
  // batchnorm input-gradient formula (the hard part of BN backward).
  Rng Generator(37);
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv",
                  std::make_unique<Conv2D>(ConvGeometry{2, 3, 3, 1, 1}),
                  {"x"});
  Network.addNode("bn", std::make_unique<BatchNorm2D>(3), {"conv"});
  Network.layer("conv").initParams(Generator);
  GradCheck Check(Network, "x", "bn",
                  randomTensor(Shape{3, 2, 4, 4}, Generator));
  Check.checkParams("conv", /*Tolerance=*/5e-2);
}

TEST(GradCheckTest, ReluMaxPoolPath) {
  Rng Generator(38);
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv",
                  std::make_unique<Conv2D>(ConvGeometry{2, 3, 3, 1, 1}),
                  {"x"});
  Network.addNode("relu", std::make_unique<ReLU>(), {"conv"});
  Network.addNode("pool",
                  std::make_unique<Pool2D>(Pool2D::Mode::Max, 2, 2),
                  {"relu"});
  Network.layer("conv").initParams(Generator);
  GradCheck Check(Network, "x", "pool",
                  randomTensor(Shape{2, 2, 6, 6}, Generator));
  Check.checkParams("conv");
}

TEST(GradCheckTest, AvgPoolAndGlobalPoolPath) {
  Rng Generator(39);
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv",
                  std::make_unique<Conv2D>(ConvGeometry{2, 3, 3, 1, 1}),
                  {"x"});
  Network.addNode("avg",
                  std::make_unique<Pool2D>(Pool2D::Mode::Average, 3, 1, 1),
                  {"conv"});
  Network.addNode("gap", std::make_unique<GlobalAvgPool>(), {"avg"});
  Network.layer("conv").initParams(Generator);
  GradCheck Check(Network, "x", "gap",
                  randomTensor(Shape{2, 2, 5, 5}, Generator));
  Check.checkParams("conv");
}

TEST(GradCheckTest, AddJoinsBothBranches) {
  Rng Generator(40);
  Graph Network;
  Network.addInput("x");
  Network.addNode("a", std::make_unique<Conv2D>(ConvGeometry{2, 2, 1, 1, 0}),
                  {"x"});
  Network.addNode("b", std::make_unique<Conv2D>(ConvGeometry{2, 2, 3, 1, 1}),
                  {"x"});
  Network.addNode("add", std::make_unique<Add>(), {"a", "b"});
  Network.layer("a").initParams(Generator);
  Network.layer("b").initParams(Generator);
  GradCheck Check(Network, "x", "add",
                  randomTensor(Shape{2, 2, 4, 4}, Generator));
  Check.checkParams("a");
  Check.checkParams("b");
}

TEST(GradCheckTest, ConcatSplitsGradientBySlot) {
  Rng Generator(41);
  Graph Network;
  Network.addInput("x");
  Network.addNode("a", std::make_unique<Conv2D>(ConvGeometry{2, 2, 1, 1, 0}),
                  {"x"});
  Network.addNode("b", std::make_unique<Conv2D>(ConvGeometry{2, 3, 1, 1, 0}),
                  {"x"});
  Network.addNode("cat", std::make_unique<Concat>(), {"a", "b"});
  Network.layer("a").initParams(Generator);
  Network.layer("b").initParams(Generator);
  GradCheck Check(Network, "x", "cat",
                  randomTensor(Shape{2, 2, 3, 3}, Generator));
  Check.checkParams("a");
  Check.checkParams("b");
}

//===----------------------------------------------------------------------===//
// Loss gradient checks
//===----------------------------------------------------------------------===//

TEST(GradCheckTest, SoftmaxCrossEntropyGradient) {
  Rng Generator(42);
  Tensor Logits(Shape{3, 4});
  for (size_t I = 0; I < Logits.size(); ++I)
    Logits[I] = Generator.nextGaussian();
  const std::vector<int> Labels{1, 3, 0};
  Tensor Grad;
  softmaxCrossEntropy(Logits, Labels, Grad);

  Tensor Unused;
  const float Eps = 1e-3f;
  for (size_t I = 0; I < Logits.size(); ++I) {
    const float Saved = Logits[I];
    Logits[I] = Saved + Eps;
    const double Plus = softmaxCrossEntropy(Logits, Labels, Unused);
    Logits[I] = Saved - Eps;
    const double Minus = softmaxCrossEntropy(Logits, Labels, Unused);
    Logits[I] = Saved;
    EXPECT_NEAR(Grad[I], (Plus - Minus) / (2 * Eps), 1e-4);
  }
}

TEST(GradCheckTest, L2ReconstructionGradient) {
  Rng Generator(43);
  Tensor Pred(Shape{2, 3});
  Tensor Target(Shape{2, 3});
  for (size_t I = 0; I < Pred.size(); ++I) {
    Pred[I] = Generator.nextGaussian();
    Target[I] = Generator.nextGaussian();
  }
  Tensor Grad;
  l2Reconstruction(Pred, Target, Grad);
  Tensor Unused;
  const float Eps = 1e-3f;
  for (size_t I = 0; I < Pred.size(); ++I) {
    const float Saved = Pred[I];
    Pred[I] = Saved + Eps;
    const double Plus = l2Reconstruction(Pred, Target, Unused);
    Pred[I] = Saved - Eps;
    const double Minus = l2Reconstruction(Pred, Target, Unused);
    Pred[I] = Saved;
    EXPECT_NEAR(Grad[I], (Plus - Minus) / (2 * Eps), 1e-4);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Distillation loss (appended tests)
//===----------------------------------------------------------------------===//

namespace {

TEST(GradCheckTest, DistillationLossGradient) {
  Rng Generator(44);
  Tensor Student(Shape{3, 5});
  Tensor Teacher(Shape{3, 5});
  for (size_t I = 0; I < Student.size(); ++I) {
    Student[I] = Generator.nextGaussian();
    Teacher[I] = Generator.nextGaussian();
  }
  for (float Temperature : {1.0f, 2.0f, 4.0f}) {
    Tensor Grad;
    distillationLoss(Student, Teacher, Temperature, Grad);
    Tensor Unused;
    const float Eps = 1e-3f;
    for (size_t I = 0; I < Student.size(); ++I) {
      const float Saved = Student[I];
      Student[I] = Saved + Eps;
      const double Plus =
          distillationLoss(Student, Teacher, Temperature, Unused);
      Student[I] = Saved - Eps;
      const double Minus =
          distillationLoss(Student, Teacher, Temperature, Unused);
      Student[I] = Saved;
      EXPECT_NEAR(Grad[I], (Plus - Minus) / (2 * Eps), 2e-4)
          << "T=" << Temperature << " index " << I;
    }
  }
}

TEST(GradCheckTest, DistillationLossZeroAtMatchingLogits) {
  Tensor Logits(Shape{2, 4}, {1, 2, 3, 4, -1, 0, 1, 2});
  Tensor Grad;
  EXPECT_NEAR(distillationLoss(Logits, Logits, 2.0f, Grad), 0.0, 1e-9);
  for (size_t I = 0; I < Grad.size(); ++I)
    EXPECT_NEAR(Grad[I], 0.0f, 1e-7);
}

} // namespace
