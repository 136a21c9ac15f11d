//===- tests/TrainTest.cpp - train/ unit tests --------------------------------------===//

#include "src/data/Synthetic.h"
#include "src/explore/Pipeline.h"
#include "src/models/MiniModels.h"
#include "src/nn/Serialize.h"
#include "src/support/File.h"
#include "src/train/Assembly.h"
#include "src/train/ModelZoo.h"
#include "src/train/Pretrainer.h"
#include "src/train/Trainer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <optional>
#include <thread>

using namespace wootz;

namespace {

/// Small shared fixtures: an easy dataset and a ResNet-A model. Training
/// budgets are tiny; these tests check mechanics and directions of
/// change, not final quality.
class TrainFixture : public ::testing::Test {
protected:
  void SetUp() override {
    SyntheticSpec DataSpec;
    DataSpec.Classes = 4;
    DataSpec.TrainPerClass = 24;
    DataSpec.TestPerClass = 12;
    DataSpec.Noise = 0.25f;
    DataSpec.Seed = 55;
    Data = generateSynthetic(DataSpec);

    Result<ModelSpec> Parsed = makeStandardModel(StandardModel::ResNetA, 4);
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
    Spec = Parsed.take();
    Model = std::make_unique<MultiplexingModel>(Spec);

    Meta.FullModelSteps = 120;
    Meta.PretrainSteps = 40;
    Meta.FinetuneSteps = 40;
    Meta.BatchSize = 8;
    Meta.EvalEvery = 20;
  }

  Dataset Data;
  ModelSpec Spec;
  std::unique_ptr<MultiplexingModel> Model;
  TrainMeta Meta;
};

/// Pre-trains every group of \p Pending in partition order, each from
/// its own seed, against the teacher \p Full (nodes "full/..."). Returns
/// the per-group stats; a failing group is recorded as a test failure
/// and ends the run early.
std::vector<GroupPretrainStats>
pretrainPending(const PendingGroups &Pending, const MultiplexingModel &Model,
                Graph &Full, const Dataset &Data, const TrainMeta &Meta,
                CheckpointStore &Store) {
  std::vector<GroupPretrainStats> Stats;
  for (size_t G = 0; G < Pending.Groups.size(); ++G) {
    Rng GroupGen(Pending.Seeds[G]);
    Result<GroupPretrainStats> Group =
        pretrainGroup(Model, Full, "full", Pending.Groups[G], Data, Meta,
                      Store, GroupGen);
    EXPECT_TRUE(static_cast<bool>(Group)) << Group.message();
    if (!Group)
      break;
    Stats.push_back(Group.take());
  }
  return Stats;
}

TEST_F(TrainFixture, TrainingImprovesFullModelAccuracy) {
  Rng Generator(61);
  Graph Network;
  Result<BuildResult> Built = Model->build(Network, BuildMode::FullModel,
                                           PruneInfo(), "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built));
  const TrainResult Trained =
      trainClassifier(Network, Built->InputNode, Built->LogitsNode, Data,
                      Meta, Meta.FullModelSteps,
                      Meta.FinetuneLearningRate, Generator);
  // Random init is near chance (0.25); training must clearly beat it.
  EXPECT_LT(Trained.InitialAccuracy, 0.55);
  EXPECT_GT(Trained.FinalAccuracy, 0.6);
  EXPECT_GE(Trained.Curve.size(), 3u);
  EXPECT_EQ(Trained.Curve.front().Step, 0);
}

TEST_F(TrainFixture, EvaluateAccuracyIsDeterministic) {
  Rng Generator(62);
  Graph Network;
  Result<BuildResult> Built = Model->build(Network, BuildMode::FullModel,
                                           PruneInfo(), "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built));
  const double A = evaluateAccuracy(Network, Built->InputNode,
                                    Built->LogitsNode, Data.Test);
  const double B = evaluateAccuracy(Network, Built->InputNode,
                                    Built->LogitsNode, Data.Test);
  EXPECT_DOUBLE_EQ(A, B);
  EXPECT_GE(A, 0.0);
  EXPECT_LE(A, 1.0);
}

TEST_F(TrainFixture, ShardedEvaluateAccuracyIsBitIdenticalToSerial) {
  Rng Generator(66);
  Graph Network;
  Result<BuildResult> Built = Model->build(Network, BuildMode::FullModel,
                                           PruneInfo(), "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built));
  // The sharded path keeps the serial loop's batch boundaries and sums
  // integer correct counts, so any thread count gives the same answer —
  // including 64, which asks for more shards than there are batches and
  // must clamp to the batch count.
  const double Serial = evaluateAccuracy(
      Network, Built->InputNode, Built->LogitsNode, Data.Test, 8, 1);
  for (int Threads : {2, 4, 7, 64})
    EXPECT_DOUBLE_EQ(Serial,
                     evaluateAccuracy(Network, Built->InputNode,
                                      Built->LogitsNode, Data.Test, 8,
                                      Threads))
        << "threads=" << Threads;
}

TEST_F(TrainFixture, EvaluateAccuracyBatchSizeInvariant) {
  Rng Generator(63);
  Graph Network;
  Result<BuildResult> Built = Model->build(Network, BuildMode::FullModel,
                                           PruneInfo(), "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built));
  EXPECT_DOUBLE_EQ(evaluateAccuracy(Network, Built->InputNode,
                                    Built->LogitsNode, Data.Test, 7),
                   evaluateAccuracy(Network, Built->InputNode,
                                    Built->LogitsNode, Data.Test, 64));
}

//===----------------------------------------------------------------------===//
// CheckpointStore
//===----------------------------------------------------------------------===//

TEST_F(TrainFixture, CheckpointCaptureRestoreRoundTrip) {
  Rng Generator(64);
  Graph A;
  ASSERT_TRUE(static_cast<bool>(Model->build(A, BuildMode::FullModel,
                                             PruneInfo(), "full",
                                             Generator)));
  Graph B;
  ASSERT_TRUE(static_cast<bool>(Model->build(B, BuildMode::FullModel,
                                             PruneInfo(), "net",
                                             Generator)));
  CheckpointStore Store;
  std::vector<std::string> Layers;
  for (const LayerSpec &L : Spec.Layers)
    Layers.push_back(L.Name);
  Store.capture("whole", A, "full", Layers);
  ASSERT_TRUE(Store.contains("whole"));
  Error E = Store.restore("whole", B, "net");
  ASSERT_FALSE(static_cast<bool>(E)) << E.message();

  // Same weights now: same outputs.
  Tensor Input(Shape{1, 3, 8, 8});
  Rng DataGen(65);
  for (size_t I = 0; I < Input.size(); ++I)
    Input[I] = DataGen.nextGaussian();
  ExecContext ACtx(A);
  ACtx.setInput("data", Input);
  ACtx.forward(A, false);
  ExecContext BCtx(B);
  BCtx.setInput("data", Input);
  BCtx.forward(B, false);
  const Tensor &OutA = ACtx.activation("full/logits");
  const Tensor &OutB = BCtx.activation("net/logits");
  for (size_t I = 0; I < OutA.size(); ++I)
    ASSERT_FLOAT_EQ(OutA[I], OutB[I]);
}

TEST_F(TrainFixture, CheckpointRejectsShapeMismatch) {
  Rng Generator(66);
  Graph Full;
  ASSERT_TRUE(static_cast<bool>(Model->build(Full, BuildMode::FullModel,
                                             PruneInfo(), "full",
                                             Generator)));
  Graph Pruned;
  PruneInfo Info;
  Info.Config = PruneConfig(Spec.moduleCount(), 0.7f);
  ASSERT_TRUE(static_cast<bool>(Model->build(Pruned, BuildMode::FineTune,
                                             Info, "net", Generator)));
  CheckpointStore Store;
  Store.capture("full-weights", Full, "full", {"m1_conv1"});
  Error E = Store.restore("full-weights", Pruned, "net");
  EXPECT_TRUE(static_cast<bool>(E)); // 8 filters vs 2 filters.
}

TEST(CheckpointStoreTest, MissingKeyErrors) {
  CheckpointStore Store;
  Graph Network;
  Error E = Store.restore("absent", Network, "net");
  EXPECT_TRUE(static_cast<bool>(E));
}

TEST(CheckpointStoreTest, SanitizeKeys) {
  const std::string Sanitized = sanitizeCheckpointKey("m2-m3@0.5,0.3");
  // Unsafe characters are replaced, and a short hash of the original
  // key is appended to keep distinct keys distinct on disk.
  EXPECT_EQ(Sanitized.substr(0, 13), "m2-m3_0.5_0.3");
  EXPECT_EQ(Sanitized, sanitizeCheckpointKey("m2-m3@0.5,0.3"));
  for (char C : Sanitized)
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(C)) || C == '-' ||
                C == '_' || C == '.')
        << "unsafe character '" << C << "' in " << Sanitized;
}

TEST(CheckpointStoreTest, SanitizeKeysNeverCollide) {
  // Regression: "b|a" and "b:a" both sanitized to "b_a" and silently
  // overwrote each other's .ckpt file.
  EXPECT_NE(sanitizeCheckpointKey("b|a"), sanitizeCheckpointKey("b:a"));
  EXPECT_NE(sanitizeCheckpointKey("m0@0.5,0.3"),
            sanitizeCheckpointKey("m0@0.5@0.3"));
  EXPECT_NE(sanitizeCheckpointKey("a_b"), sanitizeCheckpointKey("a|b"));
}

TEST(CheckpointStoreTest, RestoreRejectsMalformedEntryNames) {
  // Bundles can come from disk, so malformed entry names must be clean
  // errors, not assert()s that compile out under NDEBUG.
  Result<ModelSpec> Parsed = makeStandardModel(StandardModel::ResNetA, 4);
  ASSERT_TRUE(static_cast<bool>(Parsed));
  MultiplexingModel Model(Parsed.take());
  Rng Generator(80);
  Graph Network;
  ASSERT_TRUE(static_cast<bool>(Model.build(
      Network, BuildMode::FullModel, PruneInfo(), "net", Generator)));

  CheckpointStore NoSlash;
  TensorBundle Bad;
  Bad["nostateindex"] = Tensor(Shape{1}, {1.0f});
  NoSlash.insert("k", std::move(Bad));
  Error E1 = NoSlash.restore("k", Network, "net");
  EXPECT_TRUE(static_cast<bool>(E1));

  CheckpointStore BadIndex;
  TensorBundle Garbled;
  Garbled["m1_conv1/sXY"] = Tensor(Shape{1}, {1.0f});
  BadIndex.insert("k", std::move(Garbled));
  Error E2 = BadIndex.restore("k", Network, "net");
  EXPECT_TRUE(static_cast<bool>(E2));
}

TEST(CheckpointStoreTest, RestoreBoundsChecksStateIndex) {
  // A bundle captured from a layer with more state tensors than the
  // target was UB in release builds (unchecked state()[*StateIndex]).
  Result<ModelSpec> Parsed = makeStandardModel(StandardModel::ResNetA, 4);
  ASSERT_TRUE(static_cast<bool>(Parsed));
  MultiplexingModel Model(Parsed.take());
  Rng Generator(81);
  Graph Network;
  ASSERT_TRUE(static_cast<bool>(Model.build(
      Network, BuildMode::FullModel, PruneInfo(), "net", Generator)));

  CheckpointStore Store;
  TensorBundle OutOfRange;
  OutOfRange["m1_conv1/s99"] = Tensor(Shape{1}, {1.0f});
  Store.insert("k", std::move(OutOfRange));
  Error E = Store.restore("k", Network, "net");
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("state tensor 99"), std::string::npos)
      << E.message();
}

TEST_F(TrainFixture, CheckpointStoreConcurrentWritersAndReaders) {
  // The runtime scheduler pre-trains block groups on worker threads
  // that all capture into one shared store while fine-tune tasks poll
  // it. Two writer threads capture disjoint key ranges from their own
  // graphs while a reader hammers contains()/keys(); every capture must
  // land and restore cleanly afterwards.
  constexpr int PerWriter = 12;
  std::vector<std::string> Layers;
  for (const LayerSpec &L : Spec.Layers)
    Layers.push_back(L.Name);

  CheckpointStore Store;
  std::atomic<bool> Stop{false};
  auto Writer = [&](int Which, unsigned Seed) {
    Rng Generator(Seed);
    Graph Network;
    Result<BuildResult> Built = Model->build(
        Network, BuildMode::FullModel, PruneInfo(), "full", Generator);
    ASSERT_TRUE(static_cast<bool>(Built));
    for (int I = 0; I < PerWriter; ++I)
      Store.capture("w" + std::to_string(Which) + "_" + std::to_string(I),
                    Network, "full", Layers);
  };
  std::thread WriterA([&] { Writer(0, 71); });
  std::thread WriterB([&] { Writer(1, 72); });
  std::thread Reader([&] {
    size_t Snapshots = 0;
    while (!Stop.load()) {
      Store.contains("w0_0");
      Snapshots += Store.keys().size();
    }
    (void)Snapshots;
  });
  WriterA.join();
  WriterB.join();
  Stop = true;
  Reader.join();

  EXPECT_EQ(Store.keys().size(), static_cast<size_t>(2 * PerWriter));
  Rng Generator(73);
  Graph Target;
  ASSERT_TRUE(static_cast<bool>(Model->build(
      Target, BuildMode::FullModel, PruneInfo(), "net", Generator)));
  for (int Which = 0; Which < 2; ++Which)
    for (int I = 0; I < PerWriter; ++I) {
      Error E = Store.restore(
          "w" + std::to_string(Which) + "_" + std::to_string(I), Target,
          "net");
      ASSERT_FALSE(static_cast<bool>(E)) << E.message();
    }
}

//===----------------------------------------------------------------------===//
// Pre-training (Teacher-Student)
//===----------------------------------------------------------------------===//

TEST_F(TrainFixture, PretrainReducesReconstructionLoss) {
  Rng Generator(68);
  Result<FullModel> Full =
      prepareFullModel(*Model, Data, Meta, "", Generator);
  ASSERT_TRUE(static_cast<bool>(Full)) << Full.message();

  CheckpointStore Store;
  const std::vector<TuningBlock> Blocks{TuningBlock{0, {0.7f}},
                                        TuningBlock{2, {0.5f}}};
  const PendingGroups Pending =
      pendingBlockGroups(Blocks, Store, nullptr, Generator.next());
  EXPECT_EQ(Pending.BlockCount, 2);
  // Non-overlapping blocks share a group.
  ASSERT_EQ(Pending.Groups.size(), 1u);
  const std::vector<GroupPretrainStats> Stats =
      pretrainPending(Pending, *Model, Full->Network, Data, Meta, Store);
  ASSERT_EQ(Stats.size(), 1u);
  EXPECT_TRUE(Store.contains("m0@0.7"));
  EXPECT_TRUE(Store.contains("m2@0.5"));
  // The Teacher-Student objective must actually decrease.
  EXPECT_LT(Stats[0].LastLoss, Stats[0].FirstLoss);
}

TEST_F(TrainFixture, PretrainSkipsStoredAndIdentityBlocks) {
  Rng Generator(69);
  Result<FullModel> Full =
      prepareFullModel(*Model, Data, Meta, "", Generator);
  ASSERT_TRUE(static_cast<bool>(Full));
  CheckpointStore Store;
  const std::vector<TuningBlock> Blocks{TuningBlock{0, {0.5f}},
                                        TuningBlock{1, {0.0f}}};
  const PendingGroups First =
      pendingBlockGroups(Blocks, Store, nullptr, Generator.next());
  EXPECT_EQ(First.BlockCount, 1); // Identity block skipped.
  ASSERT_EQ(
      pretrainPending(First, *Model, Full->Network, Data, Meta, Store)
          .size(),
      First.Groups.size());
  const PendingGroups Second =
      pendingBlockGroups(Blocks, Store, nullptr, Generator.next());
  EXPECT_EQ(Second.BlockCount, 0); // Already stored.
  EXPECT_TRUE(Second.Groups.empty());
}

TEST_F(TrainFixture, OverlappingBlocksLandInSeparateGroups) {
  Rng Generator(70);
  Result<FullModel> Full =
      prepareFullModel(*Model, Data, Meta, "", Generator);
  ASSERT_TRUE(static_cast<bool>(Full));
  CheckpointStore Store;
  const std::vector<TuningBlock> Blocks{
      TuningBlock{0, {0.3f}}, TuningBlock{0, {0.5f}},
      TuningBlock{0, {0.7f}}};
  TrainMeta Short = Meta;
  Short.PretrainSteps = 5;
  const PendingGroups Pending =
      pendingBlockGroups(Blocks, Store, nullptr, Generator.next());
  EXPECT_EQ(Pending.Groups.size(), 3u);
  EXPECT_EQ(
      pretrainPending(Pending, *Model, Full->Network, Data, Short, Store)
          .size(),
      3u);
}

//===----------------------------------------------------------------------===//
// Assembly: block-trained vs default networks
//===----------------------------------------------------------------------===//

TEST_F(TrainFixture, BlockTrainedInitBeatsDefaultInit) {
  // The composability hypothesis at unit scale (§7.2): a block-trained
  // network must start at a much better accuracy than a default one.
  Rng Generator(71);
  Result<FullModel> Full =
      prepareFullModel(*Model, Data, Meta, "", Generator);
  ASSERT_TRUE(static_cast<bool>(Full));
  ASSERT_GT(Full->Accuracy, 0.5);

  const PruneConfig Config(Spec.moduleCount(), 0.7f);
  std::vector<TuningBlock> Blocks;
  for (int M = 0; M < Spec.moduleCount(); ++M)
    Blocks.push_back(TuningBlock{M, {0.7f}});
  CheckpointStore Store;
  const PendingGroups Pending =
      pendingBlockGroups(Blocks, Store, nullptr, Generator.next());
  ASSERT_EQ(
      pretrainPending(Pending, *Model, Full->Network, Data, Meta, Store)
          .size(),
      Pending.Groups.size());

  Result<AssembledNetwork> Default = buildPrunedNetwork(
      *Model, Config, Full->Network, "full", nullptr, nullptr, Generator);
  ASSERT_TRUE(static_cast<bool>(Default)) << Default.message();
  Result<AssembledNetwork> BlockTrained =
      buildPrunedNetwork(*Model, Config, Full->Network, "full", &Store,
                         &Blocks, Generator);
  ASSERT_TRUE(static_cast<bool>(BlockTrained)) << BlockTrained.message();
  EXPECT_EQ(BlockTrained->BlocksUsed.size(), Blocks.size());

  const double DefaultInit =
      evaluateAccuracy(Default->Network, Default->InputNode,
                       Default->LogitsNode, Data.Test);
  const double BlockInit = evaluateAccuracy(
      BlockTrained->Network, BlockTrained->InputNode,
      BlockTrained->LogitsNode, Data.Test);
  EXPECT_GT(BlockInit, DefaultInit + 0.1)
      << "block-trained init " << BlockInit << " vs default "
      << DefaultInit;
}

TEST_F(TrainFixture, AssemblyRejectsMismatchedCompositeBlock) {
  Rng Generator(72);
  Result<FullModel> Full =
      prepareFullModel(*Model, Data, Meta, "", Generator);
  ASSERT_TRUE(static_cast<bool>(Full));
  CheckpointStore Store;
  const PruneConfig Config(Spec.moduleCount(), 0.5f);
  const std::vector<TuningBlock> Wrong{TuningBlock{0, {0.5f}}};
  // Block matches the config but was never pre-trained: restore fails.
  Result<AssembledNetwork> Assembled = buildPrunedNetwork(
      *Model, Config, Full->Network, "full", &Store, &Wrong, Generator);
  EXPECT_FALSE(static_cast<bool>(Assembled));
}

//===----------------------------------------------------------------------===//
// ModelZoo caching
//===----------------------------------------------------------------------===//

TEST_F(TrainFixture, FullModelCacheHitSkipsTraining) {
  const std::string Dir =
      (std::filesystem::temp_directory_path() / "wootz_zoo_test").string();
  std::filesystem::remove_all(Dir);
  Rng Generator(73);
  Result<FullModel> First =
      prepareFullModel(*Model, Data, Meta, Dir, Generator);
  ASSERT_TRUE(static_cast<bool>(First)) << First.message();
  EXPECT_FALSE(First->FromCache);

  Rng Generator2(74);
  Result<FullModel> Second =
      prepareFullModel(*Model, Data, Meta, Dir, Generator2);
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.message();
  EXPECT_TRUE(Second->FromCache);
  EXPECT_NEAR(Second->Accuracy, First->Accuracy, 1e-9);
  std::filesystem::remove_all(Dir);
}

/// The teacher entries prepareFullModel wrote into \p Dir.
std::vector<std::string> teacherEntries(const std::string &Dir) {
  std::vector<std::string> Entries;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".ckpt")
      Entries.push_back(Entry.path().string());
  return Entries;
}

TEST_F(TrainFixture, FullModelCacheAddressCoversTheWholeSpec) {
  // Regression: the teacher was keyed by the spec's name, so two models
  // with one name and the same parameter shapes shared a teacher.
  Result<ModelSpec> Parsed = makeStandardModel(StandardModel::InceptionB, 4);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  ModelSpec MaxPool = Parsed.take();
  ModelSpec AvePool = MaxPool;
  int Flipped = 0;
  for (LayerSpec &L : MaxPool.Layers)
    if (L.Kind == LayerKind::Pooling && !L.GlobalPooling && !L.PoolMax) {
      L.PoolMax = true;
      ++Flipped;
    }
  ASSERT_GT(Flipped, 0);
  ASSERT_EQ(MaxPool.Name, AvePool.Name);
  const MultiplexingModel Max(MaxPool);
  const MultiplexingModel Ave(AvePool);
  TrainMeta Short = Meta;
  Short.FullModelSteps = 10;

  const std::string Dir =
      (std::filesystem::temp_directory_path() / "wootz_zoo_spec_test")
          .string();
  std::filesystem::remove_all(Dir);
  Rng Generator(73);
  Result<FullModel> First = prepareFullModel(Max, Data, Short, Dir, Generator);
  ASSERT_TRUE(static_cast<bool>(First)) << First.message();
  EXPECT_FALSE(First->FromCache);
  Rng Generator2(73);
  Result<FullModel> Second =
      prepareFullModel(Ave, Data, Short, Dir, Generator2);
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.message();
  EXPECT_FALSE(Second->FromCache);
  EXPECT_EQ(teacherEntries(Dir).size(), 2u);

  // Each model still finds its own teacher.
  Rng Generator3(74);
  Result<FullModel> Third = prepareFullModel(Ave, Data, Short, Dir, Generator3);
  ASSERT_TRUE(static_cast<bool>(Third)) << Third.message();
  EXPECT_TRUE(Third->FromCache);
  EXPECT_EQ(Third->Accuracy, Second->Accuracy);
  std::filesystem::remove_all(Dir);
}

TEST_F(TrainFixture, FullModelCacheAddressCoversTheTrainingMeta) {
  // Regression: batch size, momentum and weight decay were not in the
  // teacher's key, so jobs differing only in them shared a teacher.
  const std::string Dir =
      (std::filesystem::temp_directory_path() / "wootz_zoo_meta_test")
          .string();
  std::filesystem::remove_all(Dir);
  Rng Generator(73);
  Result<FullModel> First =
      prepareFullModel(*Model, Data, Meta, Dir, Generator);
  ASSERT_TRUE(static_cast<bool>(First)) << First.message();
  EXPECT_FALSE(First->FromCache);

  TrainMeta Wider = Meta;
  Wider.BatchSize = 2 * Meta.BatchSize;
  Rng Generator2(73);
  Result<FullModel> Second =
      prepareFullModel(*Model, Data, Wider, Dir, Generator2);
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.message();
  EXPECT_FALSE(Second->FromCache);

  // Knobs full-model training never reads keep the teacher warm.
  TrainMeta FinetuneOnly = Meta;
  FinetuneOnly.FinetuneSteps += 5;
  FinetuneOnly.PretrainLearningRate *= 2.0f;
  Rng Generator3(73);
  Result<FullModel> Third =
      prepareFullModel(*Model, Data, FinetuneOnly, Dir, Generator3);
  ASSERT_TRUE(static_cast<bool>(Third)) << Third.message();
  EXPECT_TRUE(Third->FromCache);
  std::filesystem::remove_all(Dir);
}

TEST_F(TrainFixture, FullModelCacheBrokenEntryIsQuarantinedAndRetrained) {
  // A teacher entry that is truncated, or that lacks the generator
  // state, is a miss: it is quarantined and the teacher retrained, and
  // the pipeline behind it reproduces a cold run bit for bit.
  // Regression: a teacher without its generator state was used anyway,
  // and the caller's stream silently skipped training's draws.
  const std::string Dir =
      (std::filesystem::temp_directory_path() / "wootz_zoo_broken_test")
          .string();
  std::filesystem::remove_all(Dir);
  PipelineOptions Options;
  Options.UseComposability = true;
  Options.CacheDir = Dir;
  const std::vector<PruneConfig> Subspace{
      PruneConfig(Spec.moduleCount(), 0.5f),
      PruneConfig(Spec.moduleCount(), 0.3f)};
  TrainMeta Short = Meta;
  Short.PretrainSteps = 10;
  Short.FinetuneSteps = 10;
  auto run = [&] {
    Rng Generator(11);
    Result<PipelineResult> Run =
        runPruningPipeline(Spec, Data, Subspace, Short, Options, Generator);
    EXPECT_TRUE(static_cast<bool>(Run)) << Run.message();
    return Run ? Run.take() : PipelineResult();
  };
  auto expectSameEvaluations = [](const PipelineResult &A,
                                  const PipelineResult &B) {
    ASSERT_EQ(A.Evaluations.size(), B.Evaluations.size());
    for (size_t I = 0; I < A.Evaluations.size(); ++I) {
      EXPECT_EQ(A.Evaluations[I].InitAccuracy, B.Evaluations[I].InitAccuracy);
      EXPECT_EQ(A.Evaluations[I].FinalAccuracy,
                B.Evaluations[I].FinalAccuracy);
    }
  };
  const PipelineResult Cold = run();
  ASSERT_FALSE(Cold.Evaluations.empty());

  const std::vector<std::string> Written = teacherEntries(Dir);
  ASSERT_EQ(Written.size(), 1u);
  const std::string Entry = Written.front();
  Result<std::string> Bytes = readFile(Entry);
  ASSERT_TRUE(static_cast<bool>(Bytes)) << Bytes.message();
  Result<TensorBundle> Bundle = loadTensors(Entry);
  ASSERT_TRUE(static_cast<bool>(Bundle)) << Bundle.message();
  TensorBundle Stripped = *Bundle;
  Stripped.erase("generator");

  const std::vector<std::string> Broken{
      Bytes->substr(0, Bytes->size() / 2), serializeTensors(Stripped)};
  for (const std::string &Contents : Broken) {
    std::filesystem::remove(Entry + ".corrupt");
    ASSERT_FALSE(static_cast<bool>(writeFile(Entry, Contents)));
    Rng Probe(11);
    Result<FullModel> Teacher =
        prepareFullModel(*Model, Data, Short, Dir, Probe);
    ASSERT_TRUE(static_cast<bool>(Teacher)) << Teacher.message();
    EXPECT_FALSE(Teacher->FromCache);
    EXPECT_TRUE(std::filesystem::exists(Entry + ".corrupt"));

    // The retrain rewrote the entry; break it again for the pipeline.
    ASSERT_FALSE(static_cast<bool>(writeFile(Entry, Contents)));
    const PipelineResult Retrained = run();
    expectSameEvaluations(Retrained, Cold);
    // The retrained entry now serves a warm run, also bit for bit.
    const PipelineResult Warm = run();
    expectSameEvaluations(Warm, Cold);
  }
  std::filesystem::remove_all(Dir);
}

class BlockCacheTeacherTest : public TrainFixture {};

TEST_F(BlockCacheTeacherTest, ConcurrentPreparesOnOneEmptyCache) {
  // Two threads (standing in for two jobs or daemons) prepare the same
  // teacher in one empty cache directory: both train or hit, and both
  // end with identical weights, accuracy and generator state.
  const std::string Dir =
      (std::filesystem::temp_directory_path() / "wootz_zoo_race_test")
          .string();
  std::filesystem::remove_all(Dir);
  TrainMeta Short = Meta;
  Short.FullModelSteps = 30;
  std::optional<Result<FullModel>> Results[2];
  std::vector<uint64_t> Streams[2];
  std::thread Threads[2];
  for (int T = 0; T < 2; ++T)
    Threads[T] = std::thread([&, T] {
      Rng Generator(73);
      Results[T].emplace(
          prepareFullModel(*Model, Data, Short, Dir, Generator));
      Streams[T] = Generator.saveState();
    });
  for (std::thread &T : Threads)
    T.join();
  Result<FullModel> &First = *Results[0];
  Result<FullModel> &Second = *Results[1];
  ASSERT_TRUE(static_cast<bool>(First)) << First.message();
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.message();
  EXPECT_EQ(First->Accuracy, Second->Accuracy);
  EXPECT_EQ(Streams[0], Streams[1]);
  const std::map<std::string, Param *> A = First->Network.namedState();
  const std::map<std::string, Param *> B = Second->Network.namedState();
  ASSERT_EQ(A.size(), B.size());
  for (const auto &[Name, State] : A) {
    ASSERT_TRUE(B.count(Name)) << Name;
    const Tensor &X = State->Value;
    const Tensor &Y = B.at(Name)->Value;
    ASSERT_EQ(X.shape(), Y.shape()) << Name;
    for (size_t I = 0; I < X.size(); ++I)
      ASSERT_EQ(X[I], Y[I]) << Name << "[" << I << "]";
  }
  // The entry both wrote is whole and serves a third caller, whose
  // stream resumes where training left the first two.
  Rng Generator(74);
  Result<FullModel> Third = prepareFullModel(*Model, Data, Short, Dir, Generator);
  ASSERT_TRUE(static_cast<bool>(Third)) << Third.message();
  EXPECT_TRUE(Third->FromCache);
  EXPECT_EQ(Third->Accuracy, First->Accuracy);
  EXPECT_EQ(Generator.saveState(), Streams[0]);
  std::filesystem::remove_all(Dir);
}

} // namespace

//===----------------------------------------------------------------------===//
// Learning-rate schedule and early stopping (appended tests)
//===----------------------------------------------------------------------===//

namespace {

TEST_F(TrainFixture, EarlyStoppingTruncatesTraining) {
  Rng Generator(75);
  Graph Network;
  Result<BuildResult> Built = Model->build(Network, BuildMode::FullModel,
                                           PruneInfo(), "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built));
  TrainMeta Patient = Meta;
  Patient.EvalEvery = 5;
  Patient.EarlyStopPatience = 1;
  const TrainResult Trained = trainClassifier(
      Network, Built->InputNode, Built->LogitsNode, Data, Patient,
      /*Steps=*/200, /*LearningRate=*/0.0f, Generator);
  // Zero learning rate: accuracy can never improve, so training stops
  // after the first patience window instead of running 200 steps.
  ASSERT_FALSE(Trained.Curve.empty());
  EXPECT_LE(Trained.Curve.back().Step, 15);
}

TEST(SolverScheduleTest, ParsesDecayAndPatienceKeys) {
  Result<TrainMeta> Meta = parseTrainMeta(
      "lr_decay_every: 20\nlr_decay_factor: 0.25\n"
      "early_stop_patience: 3\nfull_model_lr: 0.5\n");
  ASSERT_TRUE(static_cast<bool>(Meta)) << Meta.message();
  EXPECT_EQ(Meta->LrDecayEvery, 20);
  EXPECT_FLOAT_EQ(Meta->LrDecayFactor, 0.25f);
  EXPECT_EQ(Meta->EarlyStopPatience, 3);
  EXPECT_FLOAT_EQ(Meta->FullModelLearningRate, 0.5f);
  Result<TrainMeta> Reparsed = parseTrainMeta(printTrainMeta(*Meta));
  ASSERT_TRUE(static_cast<bool>(Reparsed)) << Reparsed.message();
  EXPECT_EQ(Reparsed->LrDecayEvery, 20);
}

TEST_F(TrainFixture, LrDecayStillLearns) {
  Rng Generator(76);
  Graph Network;
  Result<BuildResult> Built = Model->build(Network, BuildMode::FullModel,
                                           PruneInfo(), "full", Generator);
  ASSERT_TRUE(static_cast<bool>(Built));
  TrainMeta Decayed = Meta;
  Decayed.LrDecayEvery = 40;
  Decayed.LrDecayFactor = 0.5f;
  const TrainResult Trained = trainClassifier(
      Network, Built->InputNode, Built->LogitsNode, Data, Decayed,
      Meta.FullModelSteps, 0.04f, Generator);
  EXPECT_GT(Trained.FinalAccuracy, Trained.InitialAccuracy + 0.2);
}

} // namespace
