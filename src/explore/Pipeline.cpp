//===- explore/Pipeline.cpp -----------------------------------------------------===//

#include "src/explore/Pipeline.h"

#include "src/explore/strategy/Driver.h"

using namespace wootz;

Result<PipelineResult> wootz::runPruningPipeline(
    const ModelSpec &Spec, const Dataset &Data,
    std::vector<PruneConfig> Subspace, const TrainMeta &Meta,
    const PipelineOptions &Options, Rng &Generator) {
  // The fixed subspace is a one-round strategy. Its exploration order
  // follows the cancellation objective; with none, smallest first.
  const PruningObjective Order =
      Options.CancelObjective ? *Options.CancelObjective : PruningObjective();
  Result<std::unique_ptr<ExplorationStrategy>> Strategy = makeStrategy(
      StrategyKind::Fixed, Spec, Subspace, Order, StrategyKnobs());
  if (!Strategy)
    return Strategy.takeError();
  Result<StrategyRunResult> Driven = runStrategyExploration(
      Spec, Data, **Strategy, Meta, Options, Order, Generator);
  if (!Driven)
    return Driven.takeError();
  return std::move(Driven->Run);
}

ExplorationSummary
wootz::summarizeExploration(const PipelineResult &Run,
                            const PruningObjective &Objective, int Nodes) {
  const size_t Count = Run.Evaluations.size();
  std::vector<double> Seconds(Count);
  std::vector<bool> Satisfies(Count);
  for (size_t I = 0; I < Count; ++I) {
    const EvaluatedConfig &E = Run.Evaluations[I];
    Seconds[I] = E.TrainSeconds;
    Satisfies[I] = Objective.satisfied(E.WeightCount, E.FinalAccuracy);
  }

  const ExplorationOutcome Outcome =
      simulateExploration(Seconds, Satisfies, Nodes);
  ExplorationSummary Summary;
  Summary.ConfigsEvaluated = Outcome.ConfigsEvaluated;
  Summary.WinnerIndex = Outcome.WinnerIndex;
  Summary.PretrainSeconds = pretrainMakespan(Run.Pretrain.GroupSeconds,
                                             Nodes);
  Summary.Seconds = Outcome.Seconds + Summary.PretrainSeconds;
  Summary.OverheadFraction =
      Summary.Seconds > 0.0 ? Summary.PretrainSeconds / Summary.Seconds
                            : 0.0;
  if (Outcome.WinnerIndex >= 0)
    Summary.WinnerSizeFraction =
        Run.Evaluations[Outcome.WinnerIndex].SizeFraction;
  return Summary;
}

ExplorationSummary
wootz::summarizeMeasuredRun(const PipelineResult &Run,
                            const PruningObjective &Objective) {
  ExplorationSummary Summary;
  Summary.Measured = true;
  for (size_t I = 0; I < Run.Evaluations.size(); ++I) {
    const EvaluatedConfig &E = Run.Evaluations[I];
    if (E.Cancelled)
      continue;
    ++Summary.ConfigsEvaluated;
    if (Summary.WinnerIndex < 0 &&
        Objective.satisfied(E.WeightCount, E.FinalAccuracy)) {
      Summary.WinnerIndex = static_cast<int>(I);
      Summary.WinnerSizeFraction = E.SizeFraction;
    }
  }
  // Measured semantics: Seconds is the real makespan (pre-training and
  // evaluation already overlap inside it), and overhead is pre-training's
  // share of total busy time.
  Summary.Seconds = Run.Telemetry.makespan();
  Summary.PretrainSeconds = Run.Telemetry.busySeconds("pretrain");
  const double Busy =
      Summary.PretrainSeconds + Run.Telemetry.busySeconds("eval");
  Summary.OverheadFraction =
      Busy > 0.0 ? Summary.PretrainSeconds / Busy : 0.0;
  return Summary;
}

/// Preference between two objective-satisfying evaluations.
static bool preferredOver(const EvaluatedConfig &A, const EvaluatedConfig &B,
                          const PruningObjective &Objective) {
  if (Objective.Optimize == Metric::ModelSize)
    return Objective.Minimize ? A.WeightCount < B.WeightCount
                              : A.WeightCount > B.WeightCount;
  return Objective.Minimize ? A.FinalAccuracy < B.FinalAccuracy
                            : A.FinalAccuracy > B.FinalAccuracy;
}

int wootz::bestEvaluation(const PipelineResult &Run,
                          const PruningObjective &Objective) {
  int Best = -1;
  for (size_t I = 0; I < Run.Evaluations.size(); ++I) {
    const EvaluatedConfig &E = Run.Evaluations[I];
    if (E.Cancelled || !Objective.satisfied(E.WeightCount, E.FinalAccuracy))
      continue;
    if (Best < 0 || preferredOver(E, Run.Evaluations[Best], Objective))
      Best = static_cast<int>(I);
  }
  return Best;
}
