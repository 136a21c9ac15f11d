//===- tests/ContractTest.cpp - programmatic-error contracts ----------------------===//
//
// The library's programmatic errors (API misuse, invariant violations)
// abort via assert, per the LLVM error-handling split between
// programmatic and recoverable errors. These death tests pin the most
// important contracts so silent misuse cannot creep in. (Asserts stay
// enabled in this project's Release builds; see the root CMakeLists.)
//
//===----------------------------------------------------------------------===//

#include "src/nn/Graph.h"
#include "src/nn/Layers.h"
#include "src/pruning/PruneConfig.h"
#include "src/support/Rng.h"
#include "src/tensor/Tensor.h"

#include <gtest/gtest.h>

using namespace wootz;

namespace {

TEST(ContractTest, TensorShapeMismatchAborts) {
  EXPECT_DEATH(Tensor(Shape{2, 2}, {1.0f, 2.0f, 3.0f}),
               "data size does not match");
}

TEST(ContractTest, TensorIndexOutOfRangeAborts) {
  Tensor T(Shape{2, 2});
  EXPECT_DEATH((void)T[4], "out of range");
}

TEST(ContractTest, ReshapeMustPreserveElementCount) {
  Tensor T(Shape{2, 3});
  EXPECT_DEATH(T.reshape(Shape{2, 2}), "preserve element count");
}

TEST(ContractTest, GraphDuplicateNodeNameAborts) {
  Graph Network;
  Network.addInput("x");
  EXPECT_DEATH(Network.addInput("x"), "duplicate node name");
}

TEST(ContractTest, GraphUndefinedInputAborts) {
  Graph Network;
  Network.addInput("x");
  EXPECT_DEATH(Network.addNode("a", std::make_unique<ReLU>(), {"ghost"}),
               "defined before use");
}

TEST(ContractTest, SetInputOnLayerNodeAborts) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("a", std::make_unique<ReLU>(), {"x"});
  ExecContext Ctx(Network);
  EXPECT_DEATH(Ctx.setInput("a", Tensor(Shape{1})),
               "input placeholder");
}

TEST(ContractTest, ConvChannelMismatchAbortsAtForward) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("conv",
                  std::make_unique<Conv2D>(ConvGeometry{3, 4, 3, 1, 1}),
                  {"x"});
  ExecContext Ctx(Network);
  Ctx.setInput("x", Tensor(Shape{1, 2, 8, 8})); // 2 != 3 channels.
  EXPECT_DEATH(Ctx.forward(Network, false), "channel mismatch");
}

TEST(ContractTest, GradientSeedShapeMustMatchActivation) {
  Graph Network;
  Network.addInput("x");
  Network.addNode("relu", std::make_unique<ReLU>(), {"x"});
  ExecContext Ctx(Network);
  Ctx.setInput("x", Tensor(Shape{1, 1, 2, 2}));
  Ctx.forward(Network, true);
  EXPECT_DEATH(Ctx.seedGradient("relu", Tensor(Shape{1, 1, 3, 3})),
               "shape must match");
}

TEST(ContractTest, KeptFiltersRejectsRateOne) {
  EXPECT_DEATH(keptFilters(8, 1.0f), "out of");
}

TEST(ContractTest, RngChoiceOnEmptyVectorAborts) {
  Rng Generator(1);
  const std::vector<int> Empty;
  EXPECT_DEATH((void)Generator.choice(Empty), "empty");
}

} // namespace
