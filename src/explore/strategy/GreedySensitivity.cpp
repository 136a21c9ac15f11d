//===- explore/strategy/GreedySensitivity.cpp ---------------------------------===//

#include "src/explore/strategy/GreedySensitivity.h"

using namespace wootz;

GreedySensitivityStrategy::GreedySensitivityStrategy(
    const ModelSpec &Spec, const PruningObjective &Objective,
    const StrategyKnobs &Knobs)
    : ModuleCount(Spec.moduleCount()),
      Rates(Knobs.Rates.empty() ? standardRates() : Knobs.Rates),
      MaxCommits(Knobs.MaxRounds),
      Threshold(objectiveAccuracyFloor(Objective)),
      RateIndex(ModuleCount, 0), Current(ModuleCount, 0.0f) {}

Result<std::vector<PruneConfig>>
GreedySensitivityStrategy::propose(const ObservedResults &Observed) {
  if (Finished)
    return std::vector<PruneConfig>{};

  if (Started) {
    // Digest the previous round: commit the qualifying bump with the
    // highest accuracy (only a strict improvement replaces the best, so
    // ties go to the lowest module).
    double BestAccuracy = -1.0;
    int BestAt = -1;
    for (size_t I = 0; I < RoundModules.size(); ++I) {
      const EvaluatedConfig &E = Observed[RoundStart + I];
      if (E.Cancelled)
        continue;
      if (E.FinalAccuracy >= Threshold && E.FinalAccuracy > BestAccuracy) {
        BestAccuracy = E.FinalAccuracy;
        BestAt = static_cast<int>(I);
      }
    }
    if (BestAt < 0) {
      // No bump keeps the constraint: the search has converged.
      Finished = true;
      return std::vector<PruneConfig>{};
    }
    const int Module = RoundModules[BestAt];
    ++RateIndex[Module];
    Current[Module] = Rates[RateIndex[Module]];
    Commits.push_back({Module, Rates[RateIndex[Module]],
                       RoundStart + static_cast<size_t>(BestAt), Current});
    if (static_cast<int>(Commits.size()) >= MaxCommits) {
      Finished = true;
      return std::vector<PruneConfig>{};
    }
  }

  // Propose every single-module bump with headroom on the alphabet.
  Started = true;
  RoundModules.clear();
  std::vector<PruneConfig> Proposals;
  for (int Module = 0; Module < ModuleCount; ++Module) {
    if (RateIndex[Module] + 1 >= static_cast<int>(Rates.size()))
      continue; // Already at the heaviest rate.
    PruneConfig Candidate = Current;
    Candidate[Module] = Rates[RateIndex[Module] + 1];
    Proposals.push_back(std::move(Candidate));
    RoundModules.push_back(Module);
  }
  if (Proposals.empty()) {
    Finished = true;
    return std::vector<PruneConfig>{};
  }
  RoundStart = Observed.size();
  return Proposals;
}
