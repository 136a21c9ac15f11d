//===- tests/ContextTest.cpp - ExecContext / re-entrant execution tests ----===//
//
// The model/context split: a Graph is an immutable-after-build model
// (topology + parameters); every pass-local tensor lives in an
// ExecContext. These tests pin the contract: checked accessors, move-in
// inputs, buffer reuse, and — the point of the refactor — N threads
// forwarding one shared Graph through private contexts with logits
// bit-identical to serial execution.
//
//===----------------------------------------------------------------------===//

#include "src/compiler/NetsFactory.h"
#include "src/compiler/Solver.h"
#include "src/models/MiniModels.h"
#include "src/nn/Graph.h"
#include "src/nn/Layers.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace wootz;

namespace {

static ModelSpec tinySpec() {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 4);
  EXPECT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  return Spec.take();
}

/// Builds and randomly initializes a full tiny ResNet; returns the graph
/// by value, which also exercises the Graph move path.
static Graph buildFullModel(std::string &LogitsNode, uint64_t Seed = 3) {
  const MultiplexingModel Model(tinySpec());
  Graph Network;
  Rng Generator(Seed);
  Result<BuildResult> Built = Model.build(Network, BuildMode::FullModel,
                                          PruneInfo(), "full", Generator);
  EXPECT_TRUE(static_cast<bool>(Built)) << Built.message();
  LogitsNode = Built->LogitsNode;
  Network.initParams(Generator);
  return Network;
}

static Tensor filledInput(int Batch, float Fill) {
  Tensor In(Shape{Batch, 3, 8, 8});
  for (size_t I = 0; I < In.size(); ++I)
    In.data()[I] = Fill + 0.01f * static_cast<float>(I % 11);
  return In;
}

//===----------------------------------------------------------------------===//
// ContextTest: the ExecContext surface
//===----------------------------------------------------------------------===//

TEST(ContextTest, GraphMoveKeepsTheModelUsable) {
  std::string Logits;
  Graph Network = buildFullModel(Logits);
  const Tensor In = filledInput(1, 0.2f);
  ExecContext Ctx(Network);
  Ctx.setInput("data", In);
  Ctx.forward(Network, /*Training=*/false);
  const Tensor Before = Ctx.activation(Logits);

  // The model carries no pass state, so a fresh context over the
  // moved-to graph must reproduce the logits bit for bit.
  Graph Moved = std::move(Network);
  ExecContext MovedCtx(Moved);
  MovedCtx.setInput("data", In);
  MovedCtx.forward(Moved, /*Training=*/false);
  const Tensor &After = MovedCtx.activation(Logits);
  ASSERT_EQ(Before.shape(), After.shape());
  for (size_t I = 0; I < Before.size(); ++I)
    EXPECT_EQ(Before.data()[I], After.data()[I]);
}

TEST(ContextTest, FindActivationTurnsBadLookupsIntoCleanErrors) {
  std::string Logits;
  Graph Network = buildFullModel(Logits);
  ExecContext Ctx(Network);

  // Unknown node: an Error naming the culprit, not an abort.
  Result<const Tensor *> Missing = Ctx.findActivation("no/such/node");
  ASSERT_FALSE(static_cast<bool>(Missing));
  EXPECT_NE(Missing.message().find("no/such/node"), std::string::npos);

  // Known node before any forward: a clean "run forward() first".
  Result<const Tensor *> TooEarly = Ctx.findActivation(Logits);
  ASSERT_FALSE(static_cast<bool>(TooEarly));
  EXPECT_NE(TooEarly.message().find("forward"), std::string::npos);

  Ctx.setInput("data", filledInput(1, 0.4f));
  Ctx.forward(Network, /*Training=*/false);
  Result<const Tensor *> Found = Ctx.findActivation(Logits);
  ASSERT_TRUE(static_cast<bool>(Found)) << Found.message();
  EXPECT_EQ((*Found)->shape(), Shape({1, 4}));

  // An unbound context fails every lookup gracefully.
  ExecContext Unbound;
  Result<const Tensor *> NoGraph = Unbound.findActivation(Logits);
  ASSERT_FALSE(static_cast<bool>(NoGraph));
  EXPECT_NE(NoGraph.message().find("not bound"), std::string::npos);
}

TEST(ContextTest, FindOutputGradientReportsUnknownAndUnseeded) {
  std::string Logits;
  Graph Network = buildFullModel(Logits);
  ExecContext Ctx(Network);
  Ctx.setInput("data", filledInput(1, 0.5f));
  Ctx.forward(Network, /*Training=*/true);

  Result<const Tensor *> Missing = Ctx.findOutputGradient("ghost");
  ASSERT_FALSE(static_cast<bool>(Missing));
  EXPECT_NE(Missing.message().find("ghost"), std::string::npos);

  // Known node, but nothing seeded/backpropagated this pass: success
  // carrying nullptr (mirrors outputGradient()).
  Result<const Tensor *> Unseeded = Ctx.findOutputGradient(Logits);
  ASSERT_TRUE(static_cast<bool>(Unseeded));
  EXPECT_EQ(*Unseeded, nullptr);

  Tensor Seed(Ctx.activation(Logits).shape());
  Seed.fill(1.0f);
  Ctx.seedGradient(Logits, Seed);
  Result<const Tensor *> Seeded = Ctx.findOutputGradient(Logits);
  ASSERT_TRUE(static_cast<bool>(Seeded));
  ASSERT_NE(*Seeded, nullptr);
  EXPECT_EQ((*Seeded)->shape(), Seed.shape());
}

TEST(ContextTest, MoveInInputAdoptsTheBufferWithoutCopying) {
  std::string Logits;
  Graph Network = buildFullModel(Logits);
  ExecContext Copying(Network);
  ExecContext Moving(Network);

  const Tensor In = filledInput(2, 0.6f);
  Tensor MoveMe = In; // Equal contents, separately owned buffer.
  const float *RawData = MoveMe.data();

  Copying.setInput("data", In);
  Moving.setInput("data", std::move(MoveMe));
  // The move-in path must adopt the same allocation, not copy it.
  EXPECT_EQ(Moving.activation("data").data(), RawData);

  Copying.forward(Network, /*Training=*/false);
  Moving.forward(Network, /*Training=*/false);
  const Tensor &A = Copying.activation(Logits);
  const Tensor &B = Moving.activation(Logits);
  ASSERT_EQ(A.shape(), B.shape());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A.data()[I], B.data()[I]);
}

TEST(ContextTest, ReusedContextKeepsItsBuffersAcrossBatches) {
  std::string Logits;
  Graph Network = buildFullModel(Logits);
  ExecContext Ctx(Network);

  Ctx.setInput("data", filledInput(2, 0.1f));
  Ctx.forward(Network, /*Training=*/false);
  const float *FirstPass = Ctx.activation(Logits).data();

  // Same batch shape again: every activation buffer must be reused, so
  // the steady-state allocation profile stays flat across batches.
  Ctx.setInput("data", filledInput(2, 0.8f));
  Ctx.forward(Network, /*Training=*/false);
  EXPECT_EQ(Ctx.activation(Logits).data(), FirstPass);

  // A different batch size is allowed to (and must) reallocate.
  Ctx.setInput("data", filledInput(3, 0.8f));
  Ctx.forward(Network, /*Training=*/false);
  EXPECT_EQ(Ctx.activation(Logits).shape(), Shape({3, 4}));
}

//===----------------------------------------------------------------------===//
// GraphConcurrencyTest: shared model, private contexts
//===----------------------------------------------------------------------===//

TEST(GraphConcurrencyTest, ConcurrentEvalForwardsMatchSerialBitForBit) {
  std::string Logits;
  Graph Network = buildFullModel(Logits);
  constexpr int Threads = 8;

  std::vector<Tensor> Inputs;
  for (int T = 0; T < Threads; ++T)
    Inputs.push_back(filledInput(2, 0.05f * static_cast<float>(T)));

  // Serial reference through one private context.
  std::vector<Tensor> Reference;
  {
    ExecContext Ctx(Network);
    for (int T = 0; T < Threads; ++T) {
      Ctx.setInput("data", Inputs[T]);
      Ctx.forward(Network, /*Training=*/false);
      Reference.push_back(Ctx.activation(Logits));
    }
  }

  // All threads at once over the one shared (read-only) model.
  std::vector<Tensor> Got(Threads);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      ExecContext Ctx(Network);
      Ctx.setInput("data", Inputs[T]);
      Ctx.forward(Network, /*Training=*/false);
      Got[T] = Ctx.activation(Logits);
    });
  for (std::thread &W : Workers)
    W.join();

  for (int T = 0; T < Threads; ++T) {
    ASSERT_EQ(Got[T].shape(), Reference[T].shape());
    for (size_t I = 0; I < Reference[T].size(); ++I)
      EXPECT_EQ(Got[T].data()[I], Reference[T].data()[I])
          << "thread " << T << " logit " << I;
  }
}

TEST(GraphConcurrencyTest, ConcurrentTrainingForwardsMatchSerialBitForBit) {
  std::string Logits;
  Graph Network = buildFullModel(Logits);
  constexpr int Threads = 8;

  std::vector<Tensor> Inputs;
  for (int T = 0; T < Threads; ++T)
    Inputs.push_back(filledInput(2, 0.03f * static_cast<float>(T + 1)));

  // Training-mode logits depend only on the batch statistics (never on
  // the running stats BatchNorm updates under its lock), so the serial
  // reference and the concurrent run must agree exactly.
  std::vector<Tensor> Reference;
  {
    ExecContext Ctx(Network);
    for (int T = 0; T < Threads; ++T) {
      Ctx.setInput("data", Inputs[T]);
      Ctx.forward(Network, /*Training=*/true);
      Reference.push_back(Ctx.activation(Logits));
    }
  }

  std::vector<Tensor> Got(Threads);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      ExecContext Ctx(Network);
      Ctx.setInput("data", Inputs[T]);
      Ctx.forward(Network, /*Training=*/true);
      Got[T] = Ctx.activation(Logits);
    });
  for (std::thread &W : Workers)
    W.join();

  for (int T = 0; T < Threads; ++T) {
    ASSERT_EQ(Got[T].shape(), Reference[T].shape());
    for (size_t I = 0; I < Reference[T].size(); ++I)
      EXPECT_EQ(Got[T].data()[I], Reference[T].data()[I])
          << "thread " << T << " logit " << I;
  }
}

TEST(GraphConcurrencyTest, SharedDropoutLayerKeepsPerContextStreams) {
  // A stochastic layer on a shared model: each context must replay the
  // layer's deterministic mask stream independently (the stream lives
  // in context scratch, not in the layer).
  Graph Network;
  Network.addInput("x");
  Network.addNode("drop", std::make_unique<Dropout>(0.5f, 99), {"x"});

  Tensor In(Shape{1, 1, 4, 4});
  for (size_t I = 0; I < In.size(); ++I)
    In.data()[I] = 1.0f + static_cast<float>(I);

  ExecContext First(Network);
  First.setInput("x", In);
  First.forward(Network, /*Training=*/true);
  const Tensor Mask1 = First.activation("drop");

  // A second context starts the stream from the layer's seed again.
  ExecContext Second(Network);
  Second.setInput("x", In);
  Second.forward(Network, /*Training=*/true);
  const Tensor &Mask2 = Second.activation("drop");
  for (size_t I = 0; I < Mask1.size(); ++I)
    EXPECT_EQ(Mask1.data()[I], Mask2.data()[I]);

  // Within one context the stream advances (a second training forward
  // draws fresh Bernoulli samples), preserving pre-refactor semantics.
  First.setInput("x", In);
  First.forward(Network, /*Training=*/true);
  bool AnyDifference = false;
  const Tensor &Mask3 = First.activation("drop");
  for (size_t I = 0; I < Mask1.size(); ++I)
    AnyDifference = AnyDifference || Mask1.data()[I] != Mask3.data()[I];
  EXPECT_TRUE(AnyDifference);
}

} // namespace
