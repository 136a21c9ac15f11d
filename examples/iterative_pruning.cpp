//===- examples/iterative_pruning.cpp - subspace-free pruning --------------------===//
//
// The paper's §4 future-work direction, implemented: prune without an
// explicit promising subspace. The greedy strategy bumps one module's
// rate per round, evaluating every candidate as a block-trained network
// through the exploration driver; the tuning-block checkpoint store
// turns the many overlapping candidate evaluations into reuses. The run
// prints the committed trajectory plus the block-reuse statistics that
// quantify the harvested savings.
//
//===----------------------------------------------------------------------===//

#include "src/explore/strategy/GreedySensitivity.h"
#include "src/support/Stopwatch.h"
#include "src/support/Table.h"
#include "src/wootz/wootz.h"

#include <cstdio>

using namespace wootz;

int main() {
  const Dataset Data = generateSynthetic(standardDatasetSpecs(0.5)[1]);
  Result<ModelSpec> Spec =
      makeStandardModel(StandardModel::ResNetA, Data.Classes);
  if (!Spec) {
    std::fprintf(stderr, "model error: %s\n", Spec.message().c_str());
    return 1;
  }
  std::printf("model: %s\ndataset: %s\n\n", Spec->Name.c_str(),
              describeDataset(Data).c_str());

  TrainMeta Meta;
  Meta.FullModelSteps = 600;
  Meta.PretrainSteps = 60;
  Meta.FinetuneSteps = 40;
  Meta.EvalEvery = 10;
  Meta.EarlyStopPatience = 2;

  // First learn what the full model achieves, then demand at most a
  // 5-point drop from it while shrinking greedily.
  Rng Generator(1234);
  double Threshold = 0.0;
  {
    const MultiplexingModel Model(*Spec);
    Result<FullModel> Full =
        prepareFullModel(Model, Data, Meta, "", Generator);
    if (!Full) {
      std::fprintf(stderr, "full model error: %s\n",
                   Full.message().c_str());
      return 1;
    }
    Threshold = Full->Accuracy - 0.05;
    std::printf("full accuracy %.3f -> threshold %.3f\n\n", Full->Accuracy,
                Threshold);
  }

  const PruningObjective Objective = smallestMeetingAccuracy(Threshold);
  StrategyKnobs Knobs;
  Knobs.Rates = {0.0f, 0.3f, 0.5f, 0.7f};
  Knobs.MaxRounds = 8;
  Result<std::unique_ptr<ExplorationStrategy>> Built =
      makeStrategy(StrategyKind::Greedy, *Spec, {}, Objective, Knobs);
  if (!Built) {
    std::fprintf(stderr, "strategy error: %s\n", Built.message().c_str());
    return 1;
  }
  // makeStrategy builds exactly this type for StrategyKind::Greedy; its
  // commits are the trajectory.
  const auto &Greedy = static_cast<const GreedySensitivityStrategy &>(**Built);

  // One (module, rate) tuning block per pruned module: a block
  // pre-trains the first time any candidate needs it and is reused by
  // every later candidate that shares it.
  PipelineOptions Options;
  Options.UseComposability = true;
  Stopwatch Timer;
  Result<StrategyRunResult> Search = runStrategyExploration(
      *Spec, Data, **Built, Meta, Options, Objective, Generator);
  if (!Search) {
    std::fprintf(stderr, "search error: %s\n", Search.message().c_str());
    return 1;
  }
  const double Seconds = Timer.seconds();
  const PipelineResult &Run = Search->Run;

  Table Trajectory({"iter", "bumped", "config", "size %", "accuracy",
                    "candidates", "blocks trained", "blocks reused"});
  PruneConfig BestConfig = unprunedConfig(*Spec);
  double BestAccuracy = Run.FullAccuracy;
  size_t BestWeightCount = Run.FullWeightCount;
  // Commit I digests round I's candidates.
  const std::vector<GreedySensitivityStrategy::Commit> &Commits =
      Greedy.commits();
  for (size_t I = 0; I < Commits.size(); ++I) {
    const GreedySensitivityStrategy::Commit &C = Commits[I];
    const StrategyRoundInfo &Round = Search->RoundsInfo[I];
    const EvaluatedConfig &Winner = Run.Evaluations[C.ObservedIndex];
    Trajectory.addRow(
        {std::to_string(I + 1),
         "m" + std::to_string(C.Module) + "@" + formatDouble(C.Rate, 1),
         formatConfig(C.Config),
         formatDouble(100.0 * Winner.WeightCount / Run.FullWeightCount, 1),
         formatDouble(Winner.FinalAccuracy, 3),
         std::to_string(Round.Proposals),
         std::to_string(Round.BlocksTrained),
         std::to_string(Round.BlocksReused)});
    BestConfig = C.Config;
    BestAccuracy = Winner.FinalAccuracy;
    BestWeightCount = Winner.WeightCount;
  }
  std::printf("%s\n", Trajectory.render().c_str());

  int BlocksTrained = 0;
  for (const StrategyRoundInfo &Round : Search->RoundsInfo)
    BlocksTrained += Round.BlocksTrained;
  std::printf("best: %s (%.1f%% of the full model, accuracy %.3f)\n",
              formatConfig(BestConfig).c_str(),
              100.0 * BestWeightCount / Run.FullWeightCount, BestAccuracy);
  std::printf("%d candidate evaluations; %d blocks pre-trained once, "
              "%d reuses from the store (%.1fx reuse) in %.1fs\n",
              Search->Proposals, BlocksTrained, Search->BlocksReused,
              BlocksTrained ? static_cast<double>(Search->BlocksReused) /
                                  BlocksTrained
                            : 0.0,
              Seconds);
  return 0;
}
