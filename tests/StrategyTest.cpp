//===- tests/StrategyTest.cpp - exploration-strategy tests ------------------===//
//
// Covers the explore/strategy/ subsystem: name parsing (unknown names
// list the valid ones), runPruningPipeline as a one-round driver run
// (evaluations listed in exploration order, so every WinnerIndex and the
// report name the right configuration; the baseline without blocks),
// the greedy subspace-free search (commits, block reuse across rounds,
// stopping rules), the determinism contract (replaying any
// strategy against the recorded observation sequence proposes identical
// configurations; EvalOnly runs are bit-identical for any Workers value;
// block groups are numbered across rounds), the adaptive explorer under
// the Overlap schedule (within-round cancellation; a warm BlockCache
// rerun pre-trains nothing yet reproduces the cold run bit-exactly),
// and the serve job API's strategy/criterion plumbing.
//
//===----------------------------------------------------------------------===//

#include "src/explore/strategy/Adaptive.h"
#include "src/explore/strategy/FixedSubspace.h"
#include "src/explore/strategy/GreedySensitivity.h"
#include "src/serve/ArtifactStore.h"
#include "src/serve/JobManager.h"
#include "src/wootz/wootz.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>

using namespace wootz;
using namespace wootz::serve;

namespace {

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Name parsing
//===----------------------------------------------------------------------===//

TEST(StrategyParseTest, RoundTripsEveryKind) {
  for (StrategyKind Kind :
       {StrategyKind::Fixed, StrategyKind::Greedy, StrategyKind::Adaptive}) {
    Result<StrategyKind> Parsed = parseStrategyKind(strategyKindName(Kind));
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
    EXPECT_EQ(*Parsed, Kind);
  }
}

TEST(StrategyParseTest, UnknownStrategyNameListsValidNames) {
  Result<StrategyKind> Parsed = parseStrategyKind("simulated-annealing");
  ASSERT_FALSE(static_cast<bool>(Parsed));
  const std::string Message = Parsed.message();
  EXPECT_NE(Message.find("simulated-annealing"), std::string::npos);
  for (const char *Name : {"fixed", "greedy", "adaptive"})
    EXPECT_NE(Message.find(Name), std::string::npos) << Name;
}

TEST(StrategyParseTest, UnknownCriterionNameListsValidNames) {
  Result<ImportanceCriterion> Parsed = parseImportanceCriterion("magnitude");
  ASSERT_FALSE(static_cast<bool>(Parsed));
  const std::string Message = Parsed.message();
  EXPECT_NE(Message.find("magnitude"), std::string::npos);
  for (const char *Name : {"l1", "l2", "taylor", "taylor_expansion", "apoz"})
    EXPECT_NE(Message.find(Name), std::string::npos) << Name;
}

TEST(StrategyParseTest, TaylorExpansionRoundTrips) {
  Result<ImportanceCriterion> Parsed =
      parseImportanceCriterion("taylor_expansion");
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(*Parsed, ImportanceCriterion::TaylorExpansion);
  EXPECT_STREQ(importanceCriterionName(ImportanceCriterion::TaylorExpansion),
               "taylor_expansion");
}

//===----------------------------------------------------------------------===//
// Knob validation
//===----------------------------------------------------------------------===//

TEST(StrategyKnobsTest, RejectsDegenerateInputs) {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 4);
  ASSERT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  const PruningObjective Objective = smallestMeetingAccuracy(0.5);

  // Fixed needs a subspace to enumerate.
  StrategyKnobs Knobs;
  Result<std::unique_ptr<ExplorationStrategy>> Empty =
      makeStrategy(StrategyKind::Fixed, *Spec, {}, Objective, Knobs);
  ASSERT_FALSE(static_cast<bool>(Empty));
  EXPECT_NE(Empty.message().find("subspace"), std::string::npos);

  // The on-the-fly strategies validate the round budget.
  const std::vector<PruneConfig> Subspace = {
      PruneConfig(static_cast<size_t>(Spec->moduleCount()), 0.5f)};
  for (StrategyKind Kind : {StrategyKind::Greedy, StrategyKind::Adaptive}) {
    StrategyKnobs NoRounds;
    NoRounds.Rates = {0.0f, 0.5f};
    NoRounds.MaxRounds = 0;
    Result<std::unique_ptr<ExplorationStrategy>> Zero =
        makeStrategy(Kind, *Spec, Subspace, Objective, NoRounds);
    ASSERT_FALSE(static_cast<bool>(Zero));
    EXPECT_NE(Zero.message().find("MaxRounds"), std::string::npos);
  }
}

TEST(StrategyKnobsTest, RejectsBadRateAlphabets) {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 4);
  ASSERT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  const PruningObjective Objective = smallestMeetingAccuracy(0.5);

  // The on-the-fly strategies need an ascending alphabet that starts at
  // the unpruned 0 and holds at least one pruned rate.
  const std::vector<PruneConfig> Subspace = {
      PruneConfig(static_cast<size_t>(Spec->moduleCount()), 0.5f)};
  for (StrategyKind Kind : {StrategyKind::Greedy, StrategyKind::Adaptive}) {
    StrategyKnobs Bad;
    Bad.Rates = {0.5f, 0.7f}; // Missing the unpruned 0.
    Result<std::unique_ptr<ExplorationStrategy>> NoZero =
        makeStrategy(Kind, *Spec, Subspace, Objective, Bad);
    ASSERT_FALSE(static_cast<bool>(NoZero));
    EXPECT_NE(NoZero.message().find("start at 0"), std::string::npos);

    Bad.Rates = {0.0f, 0.7f, 0.5f};
    Result<std::unique_ptr<ExplorationStrategy>> Unsorted =
        makeStrategy(Kind, *Spec, Subspace, Objective, Bad);
    ASSERT_FALSE(static_cast<bool>(Unsorted));
    EXPECT_NE(Unsorted.message().find("ascending"), std::string::npos);

    Bad.Rates = {0.0f}; // No pruned rate.
    Result<std::unique_ptr<ExplorationStrategy>> Unpruned =
        makeStrategy(Kind, *Spec, Subspace, Objective, Bad);
    ASSERT_FALSE(static_cast<bool>(Unpruned));
    EXPECT_NE(Unpruned.message().find("at least one pruned rate"),
              std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Driver fixture
//===----------------------------------------------------------------------===//

class StrategyDriverFixture : public ::testing::Test {
protected:
  void SetUp() override {
    SyntheticSpec DataSpec;
    DataSpec.Classes = 4;
    DataSpec.TrainPerClass = 12;
    DataSpec.TestPerClass = 6;
    DataSpec.Noise = 0.5f;
    DataSpec.Seed = 13;
    Data = generateSynthetic(DataSpec);

    Result<ModelSpec> Parsed = makeStandardModel(StandardModel::ResNetA, 4);
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
    Spec = Parsed.take();
    ASSERT_GE(Spec.moduleCount(), 2);

    Meta.FullModelSteps = 40;
    Meta.PretrainSteps = 24;
    Meta.FinetuneSteps = 10;
    Meta.BatchSize = 8;
    Meta.EvalEvery = 10;

    auto Config = [&](float Rate0, float Rate1) {
      PruneConfig C(static_cast<size_t>(Spec.moduleCount()), 0.0f);
      C[0] = Rate0;
      C[1] = Rate1;
      return C;
    };
    Subspace = {Config(0.7f, 0.7f), Config(0.7f, 0.0f),
                Config(0.0f, 0.7f), Config(0.5f, 0.5f),
                Config(0.5f, 0.0f), Config(0.0f, 0.5f),
                Config(0.3f, 0.0f)};
    Objective = smallestMeetingAccuracy(0.0);
  }

  /// EvalOnly + per-module blocks: the deterministic baseline schedule.
  PipelineOptions evalOnlyOptions(int Workers = 1) const {
    PipelineOptions Options;
    Options.UseComposability = true;
    Options.UseIdentifier = false;
    Options.Schedule = PipelineSchedule::EvalOnly;
    Options.Workers = Workers;
    return Options;
  }

  /// Greedy knobs: the rate alphabet \p Rates and \p MaxRounds commits.
  static StrategyKnobs greedyKnobs(std::vector<float> Rates,
                                   int MaxRounds) {
    StrategyKnobs Knobs;
    Knobs.Rates = std::move(Rates);
    Knobs.MaxRounds = MaxRounds;
    return Knobs;
  }

  std::unique_ptr<ExplorationStrategy> build(StrategyKind Kind,
                                             int MaxRounds = 4) const {
    StrategyKnobs Knobs;
    Knobs.Rates = subspaceRateAlphabet(Subspace);
    Knobs.MaxRounds = MaxRounds;
    Result<std::unique_ptr<ExplorationStrategy>> Built =
        makeStrategy(Kind, Spec, Subspace, Objective, Knobs);
    EXPECT_TRUE(static_cast<bool>(Built)) << Built.message();
    return Built ? Built.take() : nullptr;
  }

  Dataset Data;
  ModelSpec Spec;
  TrainMeta Meta;
  std::vector<PruneConfig> Subspace;
  PruningObjective Objective;
};

/// Bit-exact evaluation equality (determinism assertions compare raw
/// double bits, not approximate closeness).
void expectIdenticalEvaluations(const std::vector<EvaluatedConfig> &A,
                                const std::vector<EvaluatedConfig> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Config, B[I].Config) << "config " << I;
    EXPECT_EQ(A[I].WeightCount, B[I].WeightCount) << "config " << I;
    EXPECT_EQ(A[I].Cancelled, B[I].Cancelled) << "config " << I;
    EXPECT_EQ(A[I].InitAccuracy, B[I].InitAccuracy) << "config " << I;
    EXPECT_EQ(A[I].FinalAccuracy, B[I].FinalAccuracy) << "config " << I;
    EXPECT_EQ(A[I].BlocksUsed, B[I].BlocksUsed) << "config " << I;
  }
}

/// Expects \p Run to list exactly the configurations of \p Subspace, in
/// ascending model size (the min-ModelSize exploration order).
void expectAscendingOrder(const PipelineResult &Run,
                          const std::vector<PruneConfig> &Subspace) {
  ASSERT_EQ(Run.Evaluations.size(), Subspace.size());
  std::vector<PruneConfig> Listed;
  for (size_t I = 0; I < Run.Evaluations.size(); ++I) {
    Listed.push_back(Run.Evaluations[I].Config);
    if (I > 0) {
      EXPECT_LE(Run.Evaluations[I - 1].WeightCount,
                Run.Evaluations[I].WeightCount)
          << "evaluation " << I;
    }
  }
  std::vector<PruneConfig> Expected = Subspace;
  std::sort(Listed.begin(), Listed.end());
  std::sort(Expected.begin(), Expected.end());
  EXPECT_EQ(Listed, Expected);
}

TEST_F(StrategyDriverFixture, MaxAccuracyPipelineListsLargestFirst) {
  // A max-Accuracy objective explores largest-first, and the pipeline
  // returns the driver's evaluations in that order, so the summary's
  // WinnerIndex and the report both name the configuration that ran.
  PruningObjective MaxAccuracy;
  MaxAccuracy.Optimize = Metric::Accuracy;
  MaxAccuracy.Minimize = false;
  ASSERT_FALSE(MaxAccuracy.exploreSmallestFirst());
  const PruneConfig Largest = *std::max_element(
      Subspace.begin(), Subspace.end(),
      [&](const PruneConfig &A, const PruneConfig &B) {
        return modelWeightCount(Spec, A) < modelWeightCount(Spec, B);
      });

  PipelineOptions Options;
  Options.UseComposability = true;
  Options.Schedule = PipelineSchedule::Overlap;
  Options.Workers = 1;
  Options.CancelObjective = &MaxAccuracy;
  Rng Generator(17);
  Result<PipelineResult> Run =
      runPruningPipeline(Spec, Data, Subspace, Meta, Options, Generator);
  ASSERT_TRUE(static_cast<bool>(Run)) << Run.message();
  ASSERT_EQ(Run->Evaluations.size(), Subspace.size());
  EXPECT_EQ(Run->Evaluations[0].Config, Largest);

  // The unconstrained objective is met by the first configuration
  // explored, the largest; one worker runs it before anything else it
  // could race, and it cancels every other evaluation.
  EXPECT_FALSE(Run->Evaluations[0].Cancelled);
  EXPECT_GT(Run->Evaluations[0].FinalAccuracy, 0.0);
  for (size_t I = 1; I < Run->Evaluations.size(); ++I)
    EXPECT_TRUE(Run->Evaluations[I].Cancelled) << "evaluation " << I;
  size_t DoneEvals = 0;
  for (const SpanEvent &Span : Run->Telemetry.Spans)
    if (Span.Kind == "eval" && Span.Status == "done") {
      ++DoneEvals;
      EXPECT_EQ(Span.Name, "eval:0");
    }
  EXPECT_EQ(DoneEvals, 1u);

  const ExplorationSummary Summary = summarizeMeasuredRun(*Run, MaxAccuracy);
  EXPECT_EQ(Summary.ConfigsEvaluated, 1);
  EXPECT_EQ(Summary.WinnerIndex, 0);
  EXPECT_EQ(Summary.WinnerSizeFraction, Run->Evaluations[0].SizeFraction);
  const std::string Report = renderRunReport(*Run, MaxAccuracy, 1);
  EXPECT_NE(Report.find("Winner `" + formatConfig(Largest) + "`"),
            std::string::npos)
      << Report;
}

TEST_F(StrategyDriverFixture, BaselinePipelineTrainsNoBlocks) {
  // Without composability the pipeline fine-tunes default networks: no
  // blocks, no pre-training, every configuration evaluated and listed
  // by ascending size.
  PipelineOptions Options;
  Options.UseComposability = false;
  Options.Workers = 2;
  Rng Generator(19);
  Result<PipelineResult> Run =
      runPruningPipeline(Spec, Data, Subspace, Meta, Options, Generator);
  ASSERT_TRUE(static_cast<bool>(Run)) << Run.message();
  expectAscendingOrder(*Run, Subspace);
  EXPECT_TRUE(Run->Blocks.empty());
  EXPECT_EQ(Run->Pretrain.BlockCount, 0);
  EXPECT_EQ(Run->Pretrain.GroupCount, 0);
  EXPECT_EQ(Run->Telemetry.busySeconds("pretrain"), 0.0);
  for (const EvaluatedConfig &E : Run->Evaluations) {
    EXPECT_FALSE(E.Cancelled);
    EXPECT_TRUE(E.BlocksUsed.empty());
  }
  EXPECT_EQ(Run->Telemetry.counter("tasks_done"),
            static_cast<int64_t>(Subspace.size()));
  EXPECT_GT(Run->EvaluationSeconds, 0.0);
}

TEST_F(StrategyDriverFixture, ReplayProposesIdenticalConfigs) {
  // The determinism contract: a fresh strategy instance fed the recorded
  // observation sequence re-proposes every round verbatim and then ends.
  for (StrategyKind Kind :
       {StrategyKind::Fixed, StrategyKind::Greedy, StrategyKind::Adaptive}) {
    SCOPED_TRACE(strategyKindName(Kind));
    std::unique_ptr<ExplorationStrategy> Live = build(Kind, /*MaxRounds=*/2);
    ASSERT_NE(Live, nullptr);
    Rng Generator(23);
    Result<StrategyRunResult> Search = runStrategyExploration(
        Spec, Data, *Live, Meta, evalOnlyOptions(), Objective, Generator);
    ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
    ASSERT_GE(Search->Rounds, 1);

    std::unique_ptr<ExplorationStrategy> Replay =
        build(Kind, /*MaxRounds=*/2);
    ASSERT_NE(Replay, nullptr);
    for (const StrategyRoundInfo &Round : Search->RoundsInfo) {
      const ObservedResults Prefix(
          Search->Run.Evaluations.begin(),
          Search->Run.Evaluations.begin() +
              static_cast<long>(Round.FirstIndex));
      Result<std::vector<PruneConfig>> Proposed = Replay->propose(Prefix);
      ASSERT_TRUE(static_cast<bool>(Proposed)) << Proposed.message();
      ASSERT_EQ(Proposed->size(), static_cast<size_t>(Round.Proposals));
      for (size_t I = 0; I < Proposed->size(); ++I)
        EXPECT_EQ((*Proposed)[I],
                  Search->Run.Evaluations[Round.FirstIndex + I].Config)
            << "round proposal " << I;
    }
    Result<std::vector<PruneConfig>> Final =
        Replay->propose(Search->Run.Evaluations);
    ASSERT_TRUE(static_cast<bool>(Final)) << Final.message();
    EXPECT_TRUE(Final->empty());
  }
}

TEST_F(StrategyDriverFixture, AdaptiveIsBitIdenticalAcrossWorkers) {
  std::vector<StrategyRunResult> Runs;
  for (int Workers : {1, 4}) {
    std::unique_ptr<ExplorationStrategy> Strategy =
        build(StrategyKind::Adaptive);
    ASSERT_NE(Strategy, nullptr);
    Rng Generator(31);
    Result<StrategyRunResult> Search = runStrategyExploration(
        Spec, Data, *Strategy, Meta, evalOnlyOptions(Workers), Objective,
        Generator);
    ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
    Runs.push_back(std::move(Search.take()));
  }
  EXPECT_EQ(Runs[0].Rounds, Runs[1].Rounds);
  EXPECT_EQ(Runs[0].Proposals, Runs[1].Proposals);
  EXPECT_EQ(Runs[0].WinnerIndex, Runs[1].WinnerIndex);
  expectIdenticalEvaluations(Runs[0].Run.Evaluations,
                             Runs[1].Run.Evaluations);
}

TEST_F(StrategyDriverFixture, AdaptiveOverlapCancelsAndWarmCacheIsBitExact) {
  const std::string CacheDir =
      ::testing::TempDir() + "wootz_strategy_blockcache";
  fs::remove_all(CacheDir);

  PipelineOptions Options;
  Options.UseComposability = true;
  Options.UseIdentifier = false;
  Options.Schedule = PipelineSchedule::Overlap;
  Options.Workers = 1;
  Options.CancelObjective = &Objective;
  Options.BlockCacheConfig.Directory = CacheDir;

  std::vector<StrategyRunResult> Runs;
  for (int Pass = 0; Pass < 2; ++Pass) {
    std::unique_ptr<ExplorationStrategy> Strategy =
        build(StrategyKind::Adaptive);
    ASSERT_NE(Strategy, nullptr);
    Rng Generator(47);
    Result<StrategyRunResult> Search = runStrategyExploration(
        Spec, Data, *Strategy, Meta, Options, Objective, Generator);
    ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
    Runs.push_back(std::move(Search.take()));
  }
  const StrategyRunResult &Cold = Runs[0];
  const StrategyRunResult &Warm = Runs[1];

  // The always-satisfied min-ModelSize objective: the round's most
  // aggressive proposal (emitted first — adaptive rounds are
  // preference-ordered for smallest-first objectives) wins as soon as it
  // finishes, cancelling the rest of its round.
  ASSERT_GE(Cold.Proposals, 2);
  size_t CancelledCount = 0;
  for (const EvaluatedConfig &E : Cold.Run.Evaluations)
    CancelledCount += E.Cancelled;
  EXPECT_GE(CancelledCount, 1u);
  EXPECT_TRUE(Cold.ObjectiveMet);
  EXPECT_EQ(Cold.WinnerIndex, 0);

  // Cold pass pre-trained every block; the warm pass pre-trains zero
  // (all served from the cross-run BlockCache) yet reproduces the cold
  // pass bit-exactly — proposals, cancellations, and accuracies.
  EXPECT_GT(Cold.Run.Pretrain.BlockCount, 0);
  EXPECT_EQ(Warm.Run.Pretrain.BlockCount, 0);
  EXPECT_GT(Warm.Run.Telemetry.counter("cache.hit"), 0);
  EXPECT_EQ(Warm.Rounds, Cold.Rounds);
  EXPECT_EQ(Warm.Proposals, Cold.Proposals);
  EXPECT_EQ(Warm.WinnerIndex, Cold.WinnerIndex);
  expectIdenticalEvaluations(Warm.Run.Evaluations, Cold.Run.Evaluations);

  fs::remove_all(CacheDir);
}

TEST_F(StrategyDriverFixture, GreedyReportsCommitsAndReuse) {
  GreedySensitivityStrategy Strategy(Spec, Objective,
                                     greedyKnobs({0.0f, 0.3f, 0.5f}, 2));
  Rng Generator(11);
  Result<StrategyRunResult> Search = runStrategyExploration(
      Spec, Data, Strategy, Meta, evalOnlyOptions(), Objective, Generator);
  ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();

  // The always-satisfied accuracy floor commits one bump per round up to
  // the budget; every round proposes one bump per module with headroom.
  ASSERT_EQ(Search->Rounds, 2);
  EXPECT_EQ(Strategy.commits().size(), 2u);
  EXPECT_EQ(Search->RoundsInfo[0].Proposals, Spec.moduleCount());
  // Round 1 re-proposes the other modules' bumps, whose (module, rate)
  // blocks were already pre-trained in round 0 — the composability
  // harvest shows up as reuse.
  EXPECT_GT(Search->RoundsInfo[1].BlocksReused, 0);
  EXPECT_EQ(Search->Run.Telemetry.counter("strategy.blocks_reused"),
            Search->BlocksReused);

  // The report names the search's winner, the smallest evaluation, not
  // the first proposal that met the objective.
  ASSERT_GT(Search->WinnerIndex, 0);
  const std::string Winner =
      formatConfig(Search->Run.Evaluations[Search->WinnerIndex].Config);
  EXPECT_NE(renderRunReport(Search->Run, Objective, 1)
                .find("Winner `" + Winner + "`"),
            std::string::npos);
}

TEST_F(StrategyDriverFixture, GreedySearchShrinksTheModel) {
  const PruningObjective AcceptAll = smallestMeetingAccuracy(0.0);
  GreedySensitivityStrategy Strategy(Spec, AcceptAll,
                                     greedyKnobs({0.0f, 0.5f}, 3));
  Rng Generator(2);
  Result<StrategyRunResult> Search = runStrategyExploration(
      Spec, Data, Strategy, Meta, evalOnlyOptions(), AcceptAll, Generator);
  ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
  // Accepting everything spends the whole budget: 3 commits.
  const std::vector<GreedySensitivityStrategy::Commit> &Commits =
      Strategy.commits();
  ASSERT_EQ(Commits.size(), 3u);
  // Weight counts shrink monotonically along the trajectory.
  size_t Previous = Search->Run.FullWeightCount;
  for (const GreedySensitivityStrategy::Commit &C : Commits) {
    const size_t Weights = Search->Run.Evaluations[C.ObservedIndex].WeightCount;
    EXPECT_LT(Weights, Previous);
    Previous = Weights;
  }
  EXPECT_EQ(modelWeightCount(Spec, Commits.back().Config), Previous);
  // Each committed step bumps exactly one module.
  EXPECT_EQ(Commits[0].Rate, 0.5f);
}

TEST_F(StrategyDriverFixture, BlockReuseGrowsAcrossIterations) {
  const PruningObjective AcceptAll = smallestMeetingAccuracy(0.0);
  GreedySensitivityStrategy Strategy(Spec, AcceptAll,
                                     greedyKnobs({0.0f, 0.5f}, 3));
  Rng Generator(3);
  Result<StrategyRunResult> Search = runStrategyExploration(
      Spec, Data, Strategy, Meta, evalOnlyOptions(), AcceptAll, Generator);
  ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
  ASSERT_GE(Search->RoundsInfo.size(), 2u);
  // Only one block per (module, rate) pair ever trains; every other
  // appearance is a reuse — the harvested composability.
  int BlocksTrained = 0;
  for (const StrategyRoundInfo &Round : Search->RoundsInfo)
    BlocksTrained += Round.BlocksTrained;
  EXPECT_LE(BlocksTrained, Spec.moduleCount()); // 4 variants at rate 0.5.
  EXPECT_GT(Search->BlocksReused, 0);
  // Round 1's candidates each train their own fresh block; by round 2
  // the committed module's block is a guaranteed reuse.
  EXPECT_GT(Search->RoundsInfo[1].BlocksReused,
            Search->RoundsInfo[0].BlocksReused);
}

TEST_F(StrategyDriverFixture, UnreachableThresholdStopsImmediately) {
  const PruningObjective Impossible = smallestMeetingAccuracy(1.1);
  GreedySensitivityStrategy Strategy(Spec, Impossible,
                                     greedyKnobs({0.0f, 0.7f}, 4));
  Rng Generator(4);
  Result<StrategyRunResult> Search = runStrategyExploration(
      Spec, Data, Strategy, Meta, evalOnlyOptions(), Impossible, Generator);
  ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
  // The first round's bumps all miss the floor: nothing is committed,
  // so the search ends at the unpruned model after that round.
  EXPECT_TRUE(Strategy.commits().empty());
  EXPECT_EQ(Search->RoundsInfo.size(), 1u);
  EXPECT_EQ(Search->WinnerIndex, -1);
}

TEST_F(StrategyDriverFixture, StopsAtRateAlphabetCeiling) {
  const PruningObjective AcceptAll = smallestMeetingAccuracy(0.0);
  // More commits allowed than modules * bumps available.
  GreedySensitivityStrategy Strategy(Spec, AcceptAll,
                                     greedyKnobs({0.0f, 0.7f}, 100));
  Rng Generator(5);
  Result<StrategyRunResult> Search = runStrategyExploration(
      Spec, Data, Strategy, Meta, evalOnlyOptions(), AcceptAll, Generator);
  ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
  // Every module can be bumped exactly once.
  const std::vector<GreedySensitivityStrategy::Commit> &Commits =
      Strategy.commits();
  ASSERT_EQ(Commits.size(), static_cast<size_t>(Spec.moduleCount()));
  for (float Rate : Commits.back().Config)
    EXPECT_FLOAT_EQ(Rate, 0.7f);
}

TEST_F(StrategyDriverFixture, EvalOnlyNumbersGroupsAcrossRounds) {
  // Every round is one graph whose block groups are numbered across the
  // whole run, so a multi-round EvalOnly run logs each group once under
  // its own name and finishes as many tasks as the Overlap schedule.
  std::vector<int64_t> TasksDone;
  for (PipelineSchedule Schedule :
       {PipelineSchedule::EvalOnly, PipelineSchedule::Overlap}) {
    GreedySensitivityStrategy Strategy(Spec, Objective,
                                       greedyKnobs({0.0f, 0.3f, 0.5f}, 3));
    PipelineOptions Options = evalOnlyOptions();
    Options.Schedule = Schedule;
    Rng Generator(11);
    Result<StrategyRunResult> Search = runStrategyExploration(
        Spec, Data, Strategy, Meta, Options, Objective, Generator);
    ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
    ASSERT_EQ(Search->Rounds, 3);

    std::set<std::string> Names;
    size_t PretrainSpans = 0;
    for (const SpanEvent &Span : Search->Run.Telemetry.Spans)
      if (Span.Kind == "pretrain") {
        ++PretrainSpans;
        Names.insert(Span.Name);
      }
    EXPECT_EQ(Names.size(), PretrainSpans);
    EXPECT_EQ(PretrainSpans,
              static_cast<size_t>(Search->Run.Pretrain.GroupCount));
    // More than one round pre-trained, and the names run g0, g1, ...
    EXPECT_GE(PretrainSpans, 2u);
    for (size_t G = 0; G < PretrainSpans; ++G)
      EXPECT_EQ(Names.count("pretrain:g" + std::to_string(G)), 1u) << G;
    EXPECT_EQ(Search->Run.Telemetry.counter("tasks_done"),
              static_cast<int64_t>(PretrainSpans) + Search->Proposals);
    TasksDone.push_back(Search->Run.Telemetry.counter("tasks_done"));
  }
  EXPECT_EQ(TasksDone[0], TasksDone[1]);
}

//===----------------------------------------------------------------------===//
// Serve job API plumbing
//===----------------------------------------------------------------------===//

std::map<std::string, std::string> strategyJobBody() {
  Result<ModelSpec> Spec =
      parseModelSpec(standardModelPrototxt(StandardModel::ResNetA, 4));
  PruneConfig A(static_cast<size_t>(Spec->moduleCount()), 0.0f);
  A[0] = 0.5f;
  PruneConfig B(static_cast<size_t>(Spec->moduleCount()), 0.0f);
  B[0] = 0.3f;
  TrainMeta Meta;
  Meta.FullModelSteps = 30;
  Meta.PretrainSteps = 12;
  Meta.FinetuneSteps = 8;
  Meta.EvalEvery = 8;
  Meta.BatchSize = 8;
  return {{"model", standardModelPrototxt(StandardModel::ResNetA, 4)},
          {"subspace", printSubspaceSpec({A, B})},
          {"meta", printTrainMeta(Meta)},
          {"objective", "min ModelSize\nconstraint Accuracy >= 0.0\n"},
          {"dataset_scale", "0.1"},
          {"workers", "1"},
          {"schedule", "evalonly"},
          {"identifier", "false"}};
}

/// A fresh artifact root for a JobManager under test, removed again on
/// destruction.
class ScratchRoot {
public:
  explicit ScratchRoot(const std::string &Name)
      : Path(::testing::TempDir() + Name), Store([&] {
          fs::remove_all(Path);
          ArtifactStoreOptions Options;
          Options.Root = Path;
          return Options;
        }()) {}
  ~ScratchRoot() {
    std::error_code Ignored;
    fs::remove_all(Path, Ignored);
  }

  const std::string Path;
  ArtifactStore Store;
};

std::string waitForTerminal(JobManager &Manager, const std::string &Id,
                            int TimeoutSeconds = 120) {
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(TimeoutSeconds);
  while (std::chrono::steady_clock::now() < Deadline) {
    Result<std::string> Status = Manager.statusJson(Id);
    if (!Status)
      return "";
    for (const char *State : {"done", "failed", "cancelled"})
      if (Status->find("\"state\":\"" + std::string(State) + "\"") !=
          std::string::npos)
        return State;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return "timeout";
}

TEST(StrategyJobApiTest, UnknownNamesAndBadKnobsAre400s) {
  ScratchRoot Root("wootz_strategy_job_api_400");
  JobManager Manager(JobManagerOptions(), Root.Store, nullptr, nullptr);

  auto BadStrategy = strategyJobBody();
  BadStrategy["strategy"] = "annealing";
  SubmitOutcome Out = Manager.submit(BadStrategy);
  EXPECT_EQ(Out.Status, 400);
  EXPECT_NE(Out.Error.find("strategy:"), std::string::npos);
  for (const char *Name : {"fixed", "greedy", "adaptive"})
    EXPECT_NE(Out.Error.find(Name), std::string::npos) << Name;

  auto BadCriterion = strategyJobBody();
  BadCriterion["criterion"] = "magnitude";
  Out = Manager.submit(BadCriterion);
  EXPECT_EQ(Out.Status, 400);
  EXPECT_NE(Out.Error.find("criterion:"), std::string::npos);
  EXPECT_NE(Out.Error.find("taylor_expansion"), std::string::npos);

  auto BadRounds = strategyJobBody();
  BadRounds["max_rounds"] = "0";
  Out = Manager.submit(BadRounds);
  EXPECT_EQ(Out.Status, 400);
  EXPECT_NE(Out.Error.find("max_rounds"), std::string::npos);

  auto BadMargin = strategyJobBody();
  BadMargin["accuracy_margin"] = "0.9";
  Out = Manager.submit(BadMargin);
  EXPECT_EQ(Out.Status, 400);
  EXPECT_NE(Out.Error.find("accuracy_margin"), std::string::npos);

  Manager.drain();
}

TEST(StrategyJobApiTest, AdaptiveJobRunsToDoneWithRoundCounters) {
  ScratchRoot Root("wootz_strategy_job_api_adaptive");
  JobManagerOptions Options;
  Options.Workers = 1;
  JobManager Manager(Options, Root.Store, nullptr, nullptr);

  auto Body = strategyJobBody();
  Body["strategy"] = "adaptive";
  Body["criterion"] = "l2";
  Body["max_rounds"] = "2";
  const SubmitOutcome Submitted = Manager.submit(Body);
  ASSERT_EQ(Submitted.Status, 202) << Submitted.Error;

  EXPECT_EQ(waitForTerminal(Manager, Submitted.Id), "done");
  Result<std::string> Status = Manager.statusJson(Submitted.Id);
  ASSERT_TRUE(static_cast<bool>(Status));
  EXPECT_NE(Status->find("\"strategy\":\"adaptive\""), std::string::npos);
  EXPECT_NE(Status->find("\"criterion\":\"l2\""), std::string::npos);
  EXPECT_NE(Status->find("\"rounds\":"), std::string::npos);
  EXPECT_NE(Status->find("\"proposals\":"), std::string::npos);
  EXPECT_NE(Status->find("strategy.rounds"), std::string::npos);
  Manager.drain();
}

} // namespace
