//===- tests/PlanTest.cpp - Static inference plan tests --------------------===//
//
// ExecPlan freezes a trained graph into a flat step list with an
// arena-allocated activation layout, folded BatchNorm, fused ReLU
// epilogues and pre-packed GEMM panels. These tests pin three things:
// the compiler's structural decisions (golden construction per built-in
// mini model plus a hand-computed arena layout), numerical agreement
// with the Graph interpreter (bit-for-bit when no folding reorders
// floats, 1e-4 relative otherwise), and re-entrancy (8 threads over one
// shared plan match serial execution bit for bit, the PlanContext
// mirror of GraphConcurrencyTest).
//
//===----------------------------------------------------------------------===//

#include "src/compiler/Multiplexing.h"
#include "src/compiler/NetsFactory.h"
#include "src/models/MiniModels.h"
#include "src/nn/Graph.h"
#include "src/nn/Layers.h"
#include "src/plan/Plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

using namespace wootz;

namespace {

/// Builds and randomly initializes one full built-in mini model.
static Graph buildFullModel(StandardModel Which, std::string &LogitsNode,
                            uint64_t Seed = 3) {
  Result<ModelSpec> Spec = makeStandardModel(Which, 4);
  EXPECT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  const MultiplexingModel Model(Spec.take());
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

static ExecPlan compilePlan(const Graph &Network,
                            const std::string &LogitsNode,
                            const PlanOptions &Options = {}) {
  Result<ExecPlan> Plan =
      ExecPlan::compile(Network, "data", LogitsNode, 3, 8, 8, Options);
  EXPECT_TRUE(static_cast<bool>(Plan)) << Plan.message();
  return Plan.take();
}

/// Max relative-difference check used by the interpreter-parity tests.
static void expectClose(const Tensor &A, const Tensor &B, float RelTol) {
  ASSERT_EQ(A.shape(), B.shape());
  for (size_t I = 0; I < A.size(); ++I) {
    const float X = A.data()[I], Y = B.data()[I];
    const float Scale = std::max({1.0f, std::abs(X), std::abs(Y)});
    EXPECT_NEAR(X, Y, RelTol * Scale) << "element " << I;
  }
}

//===----------------------------------------------------------------------===//
// Golden construction
//===----------------------------------------------------------------------===//

TEST(PlanTest, EveryMiniModelFoldsAllBatchNormAndFusesAllReLU) {
  // In all four built-in minis every BatchNorm trails a conv it solely
  // consumes and every ReLU trails a conv/add chain: the default options
  // must leave no standalone ScaleShift or ReLU step behind.
  for (StandardModel Which : standardModels()) {
    std::string Logits;
    Graph Network = buildFullModel(Which, Logits);
    const ExecPlan Plan = compilePlan(Network, Logits);
    ASSERT_FALSE(Plan.steps().empty());

    int Convs = 0, Denses = 0;
    for (const PlanStep &Step : Plan.steps()) {
      EXPECT_NE(Step.Kind, PlanStep::Op::ScaleShift)
          << standardModelName(Which) << " left standalone BN at "
          << Step.Node;
      EXPECT_NE(Step.Kind, PlanStep::Op::ReLU)
          << standardModelName(Which) << " left unfused ReLU at "
          << Step.Node;
      if (Step.Kind == PlanStep::Op::Conv) {
        ++Convs;
        EXPECT_TRUE(Step.FoldedBatchNorm)
            << standardModelName(Which) << " unfolded conv " << Step.Node;
        EXPECT_TRUE(Step.HasBias) << "folding must synthesize a bias";
        EXPECT_FALSE(Step.Packed.empty())
            << "conv panels must be pre-packed";
        EXPECT_TRUE(Step.Weight.empty())
            << "a conv step keeps its weights only as packed panels";
      }
      if (Step.Kind == PlanStep::Op::Dense)
        ++Denses;
    }
    EXPECT_GT(Convs, 0);
    EXPECT_EQ(Denses, 1) << "one logits head";
    // The head produces the plan output.
    EXPECT_EQ(Plan.steps().back().Output, Plan.outputBuffer());
  }
}

TEST(PlanTest, ResidualAddAndInceptionConcatLowerAsExpected) {
  std::string Logits;
  Graph ResNet = buildFullModel(StandardModel::ResNetA, Logits);
  const ExecPlan ResPlan = compilePlan(ResNet, Logits);
  int FusedAdds = 0;
  for (const PlanStep &Step : ResPlan.steps())
    if (Step.Kind == PlanStep::Op::Add) {
      EXPECT_EQ(Step.Inputs.size(), 2u);
      EXPECT_TRUE(Step.FusedReLU)
          << "module-output ReLU must ride the Add epilogue";
      ++FusedAdds;
    }
  EXPECT_GT(FusedAdds, 0) << "a ResNet plan without residual adds";

  Graph Inception = buildFullModel(StandardModel::InceptionA, Logits);
  const ExecPlan IncPlan = compilePlan(Inception, Logits);
  int Concats = 0, AvgPools = 0;
  for (const PlanStep &Step : IncPlan.steps()) {
    if (Step.Kind == PlanStep::Op::Concat) {
      EXPECT_GE(Step.Inputs.size(), 2u);
      ++Concats;
    }
    AvgPools += Step.Kind == PlanStep::Op::AvgPool;
  }
  EXPECT_GT(Concats, 0) << "an Inception plan without branch concats";
  EXPECT_GT(AvgPools, 0) << "the b3 pooling branch must survive";
}

TEST(PlanTest, CompilationIsDeterministic) {
  for (StandardModel Which : standardModels()) {
    std::string Logits;
    Graph Network = buildFullModel(Which, Logits);
    const ExecPlan First = compilePlan(Network, Logits);
    const ExecPlan Second = compilePlan(Network, Logits);
    EXPECT_EQ(First.describeJson(), Second.describeJson())
        << standardModelName(Which);
  }
}

TEST(PlanTest, ArenaReusesStorageWithoutOverlappingLiveRanges) {
  for (StandardModel Which : standardModels()) {
    std::string Logits;
    Graph Network = buildFullModel(Which, Logits);
    const ExecPlan Plan = compilePlan(Network, Logits);

    size_t Total = 0;
    for (const PlanBuffer &Buf : Plan.buffers()) {
      Total += Buf.PerSampleElems;
      EXPECT_LE(Buf.ArenaOffset + Buf.PerSampleElems,
                Plan.arenaPerSample());
    }
    // Lifetime-based reuse must actually shrink the arena: every mini
    // model has more live bytes than peak bytes.
    EXPECT_LT(Plan.arenaPerSample(), Total) << standardModelName(Which);

    // And reuse must never alias two buffers that are live at once.
    const std::vector<PlanBuffer> &Bufs = Plan.buffers();
    for (size_t A = 0; A < Bufs.size(); ++A)
      for (size_t B = A + 1; B < Bufs.size(); ++B) {
        const bool LiveTogether = Bufs[A].DefStep <= Bufs[B].LastUse &&
                                  Bufs[B].DefStep <= Bufs[A].LastUse;
        if (!LiveTogether)
          continue;
        const bool Disjoint =
            Bufs[A].ArenaOffset + Bufs[A].PerSampleElems <=
                Bufs[B].ArenaOffset ||
            Bufs[B].ArenaOffset + Bufs[B].PerSampleElems <=
                Bufs[A].ArenaOffset;
        EXPECT_TRUE(Disjoint)
            << standardModelName(Which) << ": buffers " << Bufs[A].Node
            << " and " << Bufs[B].Node << " overlap while both live";
      }
  }
}

TEST(PlanTest, HandComputedArenaLayoutMatches) {
  // conv(3->4, 3x3, pad 1) -> relu -> globalavgpool -> dense, with
  // fusion off so every node becomes its own step. Per-sample sizes:
  // input 3*8*8=192, conv 4*8*8=256, relu 256, pooled 4, logits 4.
  Graph Network;
  Network.addInput("data");
  ConvGeometry Geometry;
  Geometry.InChannels = 3;
  Geometry.OutChannels = 4;
  Geometry.KernelSize = 3;
  Geometry.Pad = 1;
  Network.addNode("conv", std::make_unique<Conv2D>(Geometry), {"data"});
  Network.addNode("relu", std::make_unique<ReLU>(), {"conv"});
  Network.addNode("pool", std::make_unique<GlobalAvgPool>(), {"relu"});
  Network.addNode("logits", std::make_unique<Dense>(4, 4), {"pool"});
  Rng Generator(7);
  Network.initParams(Generator);

  PlanOptions Options;
  Options.FuseReLU = false;
  const ExecPlan Plan = compilePlan(Network, "logits", Options);
  ASSERT_EQ(Plan.steps().size(), 4u);
  EXPECT_EQ(Plan.steps()[0].Kind, PlanStep::Op::Conv);
  EXPECT_EQ(Plan.steps()[1].Kind, PlanStep::Op::ReLU);
  EXPECT_EQ(Plan.steps()[2].Kind, PlanStep::Op::GlobalAvgPool);
  EXPECT_EQ(Plan.steps()[3].Kind, PlanStep::Op::Dense);

  // First-fit with live ranges [def, lastUse]:
  //   input  [-1,0] 192 floats -> offset 0
  //   conv   [0,1]  256        -> overlaps input  -> offset 192
  //   relu   [1,2]  256        -> overlaps conv only; the 0..192 gap is
  //                               too small         -> offset 448
  //   pooled [2,3]  4          -> overlaps relu only -> offset 0
  //   logits [3,4]  4          -> overlaps pooled    -> offset 4
  ASSERT_EQ(Plan.buffers().size(), 5u);
  const std::vector<PlanBuffer> &Bufs = Plan.buffers();
  EXPECT_EQ(Bufs[0].PerSampleElems, 192u);
  EXPECT_EQ(Bufs[0].ArenaOffset, 0u);
  EXPECT_EQ(Bufs[1].PerSampleElems, 256u);
  EXPECT_EQ(Bufs[1].ArenaOffset, 192u);
  EXPECT_EQ(Bufs[2].PerSampleElems, 256u);
  EXPECT_EQ(Bufs[2].ArenaOffset, 448u);
  EXPECT_EQ(Bufs[3].PerSampleElems, 4u);
  EXPECT_EQ(Bufs[3].ArenaOffset, 0u);
  EXPECT_EQ(Bufs[4].PerSampleElems, 4u);
  EXPECT_EQ(Bufs[4].ArenaOffset, 4u);
  EXPECT_EQ(Plan.arenaPerSample(), 704u);
}

TEST(PlanTest, OptionSwitchesDisableEachTransformation) {
  std::string Logits;
  Graph Network = buildFullModel(StandardModel::ResNetA, Logits);

  PlanOptions NoFold;
  NoFold.FoldBatchNorm = false;
  const ExecPlan Unfolded = compilePlan(Network, Logits, NoFold);
  int ScaleShifts = 0;
  for (const PlanStep &Step : Unfolded.steps()) {
    ScaleShifts += Step.Kind == PlanStep::Op::ScaleShift;
    EXPECT_FALSE(Step.FoldedBatchNorm);
  }
  EXPECT_GT(ScaleShifts, 0);

  PlanOptions NoFuse;
  NoFuse.FuseReLU = false;
  const ExecPlan Unfused = compilePlan(Network, Logits, NoFuse);
  int ReLUs = 0;
  for (const PlanStep &Step : Unfused.steps()) {
    ReLUs += Step.Kind == PlanStep::Op::ReLU;
    EXPECT_FALSE(Step.FusedReLU);
  }
  EXPECT_GT(ReLUs, 0);
}

TEST(PlanTest, CompileFailsCleanlyOnBadNodes) {
  std::string Logits;
  Graph Network = buildFullModel(StandardModel::ResNetA, Logits);

  Result<ExecPlan> NoSuchOutput =
      ExecPlan::compile(Network, "data", "no/such/node", 3, 8, 8);
  ASSERT_FALSE(static_cast<bool>(NoSuchOutput));
  EXPECT_NE(NoSuchOutput.message().find("no/such/node"),
            std::string::npos);

  Result<ExecPlan> WrongInput =
      ExecPlan::compile(Network, "no/such/input", Logits, 3, 8, 8);
  ASSERT_FALSE(static_cast<bool>(WrongInput));

  // A cone that depends on a placeholder other than the declared input
  // cannot be frozen.
  Graph TwoInputs;
  TwoInputs.addInput("a");
  TwoInputs.addInput("b");
  TwoInputs.addNode("sum", std::make_unique<Add>(), {"a", "b"});
  Result<ExecPlan> Unbound =
      ExecPlan::compile(TwoInputs, "a", "sum", 3, 8, 8);
  ASSERT_FALSE(static_cast<bool>(Unbound));
  EXPECT_NE(Unbound.message().find("b"), std::string::npos);
}

TEST(PlanTest, DescribeJsonRecordsTheCompilersDecisions) {
  std::string Logits;
  Graph Network = buildFullModel(StandardModel::ResNetA, Logits);
  const std::string Json = compilePlan(Network, Logits).describeJson();
  for (const char *Key :
       {"\"steps\"", "\"buffers\"", "\"arenaPerSample\"",
        "\"foldedBatchNorm\":true", "\"fusedReLU\":true",
        "\"prePacked\":true", "\"op\":\"conv\"", "\"op\":\"dense\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
}

//===----------------------------------------------------------------------===//
// Numerical agreement with the interpreter
//===----------------------------------------------------------------------===//

TEST(PlanTest, LogitsMatchInterpreterWithinRelativeTolerance) {
  // BatchNorm folding legitimately reorders float operations, so the
  // contract across all four minis is 1e-4 relative, per the freeze
  // contract in plan/Plan.h.
  for (StandardModel Which : standardModels()) {
    std::string Logits;
    Graph Network = buildFullModel(Which, Logits);
    const Tensor In = filledInput(3, 0.3f);

    ExecContext Ctx(Network);
    Ctx.setInput("data", In);
    Ctx.forward(Network, /*Training=*/false);
    const Tensor &Reference = Ctx.activation(Logits);

    const ExecPlan Plan = compilePlan(Network, Logits);
    PlanContext PlanCtx(Plan);
    expectClose(Reference, PlanCtx.run(In), 1e-4f);
  }
}

TEST(PlanTest, BitIdenticalToInterpreterWithoutBatchNorm) {
  // No BatchNorm anywhere: folding has nothing to reorder, and the plan
  // replicates the interpreter's kernel dispatch exactly, so logits
  // must agree bit for bit — fusion and arena reuse included.
  Graph Network;
  Network.addInput("data");
  ConvGeometry Geometry;
  Geometry.InChannels = 3;
  Geometry.OutChannels = 8;
  Geometry.KernelSize = 3;
  Geometry.Pad = 1;
  Network.addNode("conv", std::make_unique<Conv2D>(Geometry), {"data"});
  Network.addNode("relu", std::make_unique<ReLU>(), {"conv"});
  Network.addNode("pool",
                  std::make_unique<Pool2D>(Pool2D::Mode::Max, 2, 2),
                  {"relu"});
  Network.addNode("gap", std::make_unique<GlobalAvgPool>(), {"pool"});
  Network.addNode("logits", std::make_unique<Dense>(8, 5), {"gap"});
  Rng Generator(11);
  Network.initParams(Generator);

  const Tensor In = filledInput(4, 0.2f);
  ExecContext Ctx(Network);
  Ctx.setInput("data", In);
  Ctx.forward(Network, /*Training=*/false);
  const Tensor &Reference = Ctx.activation("logits");

  const ExecPlan Plan = compilePlan(Network, "logits");
  PlanContext PlanCtx(Plan);
  const Tensor &Got = PlanCtx.run(In);
  ASSERT_EQ(Reference.shape(), Got.shape());
  for (size_t I = 0; I < Reference.size(); ++I)
    EXPECT_EQ(Reference.data()[I], Got.data()[I]) << "logit " << I;
}

TEST(PlanTest, DropoutCompilesToAZeroCostAlias) {
  Graph Network;
  Network.addInput("data");
  ConvGeometry Geometry;
  Geometry.InChannels = 3;
  Geometry.OutChannels = 4;
  Geometry.KernelSize = 1;
  Network.addNode("conv", std::make_unique<Conv2D>(Geometry), {"data"});
  Network.addNode("drop", std::make_unique<Dropout>(0.5f, 42), {"conv"});
  Network.addNode("gap", std::make_unique<GlobalAvgPool>(), {"drop"});
  Network.addNode("logits", std::make_unique<Dense>(4, 4), {"gap"});
  Rng Generator(13);
  Network.initParams(Generator);

  const ExecPlan Plan = compilePlan(Network, "logits");
  // Eval-mode dropout is the identity: no step, no buffer.
  for (const PlanStep &Step : Plan.steps())
    EXPECT_NE(Step.Node, "drop");

  const Tensor In = filledInput(2, 0.4f);
  ExecContext Ctx(Network);
  Ctx.setInput("data", In);
  Ctx.forward(Network, /*Training=*/false);
  PlanContext PlanCtx(Plan);
  expectClose(Ctx.activation("logits"), PlanCtx.run(In), 1e-4f);
}

//===----------------------------------------------------------------------===//
// Re-entrancy: one shared plan, many contexts
//===----------------------------------------------------------------------===//

TEST(PlanConcurrencyTest, EightWorkersOverOnePlanMatchSerialBitForBit) {
  std::string Logits;
  Graph Network = buildFullModel(StandardModel::ResNetA, Logits);
  const ExecPlan Plan = compilePlan(Network, Logits);
  constexpr int Threads = 8;

  std::vector<Tensor> Inputs;
  for (int T = 0; T < Threads; ++T)
    Inputs.push_back(filledInput(2, 0.05f * static_cast<float>(T)));

  // Serial reference through one context (also exercises arena reuse
  // across calls).
  std::vector<Tensor> Reference;
  {
    PlanContext Ctx(Plan);
    for (int T = 0; T < Threads; ++T)
      Reference.push_back(Ctx.run(Inputs[T]));
  }

  std::vector<Tensor> Got(Threads);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      PlanContext Ctx(Plan);
      Got[T] = Ctx.run(Inputs[T]);
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

TEST(PlanConcurrencyTest, BatchingDoesNotChangePerSampleLogits) {
  // The batcher coalesces requests into one NCHW batch; for that to be
  // transparent, a sample's logits must not depend on its companions.
  // Plan conv steps run per-sample GEMMs and the mini-model dense head
  // stays on the same kernel path at these sizes, so the guarantee is
  // exact here.
  std::string Logits;
  Graph Network = buildFullModel(StandardModel::InceptionA, Logits);
  const ExecPlan Plan = compilePlan(Network, Logits);
  PlanContext Ctx(Plan);

  const Tensor Batch = filledInput(3, 0.15f);
  const Tensor Batched = Ctx.run(Batch);
  const size_t SampleElems = 3 * 8 * 8;
  for (int S = 0; S < 3; ++S) {
    Tensor One(Shape{1, 3, 8, 8});
    std::copy_n(Batch.data() + static_cast<size_t>(S) * SampleElems,
                SampleElems, One.data());
    const Tensor &Single = Ctx.run(One);
    ASSERT_EQ(Single.shape(), Shape({1, 4}));
    for (int C = 0; C < 4; ++C)
      EXPECT_EQ(Single.data()[C],
                Batched.data()[static_cast<size_t>(S) * 4 + C])
          << "sample " << S << " class " << C;
  }
}

} // namespace
