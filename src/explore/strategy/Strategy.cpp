//===- explore/strategy/Strategy.cpp ------------------------------------------===//

#include "src/explore/strategy/Strategy.h"

#include "src/explore/strategy/Adaptive.h"
#include "src/explore/strategy/FixedSubspace.h"
#include "src/explore/strategy/GreedySensitivity.h"

#include <algorithm>

using namespace wootz;

const char *wootz::strategyKindName(StrategyKind Kind) {
  switch (Kind) {
  case StrategyKind::Fixed:
    return "fixed";
  case StrategyKind::Greedy:
    return "greedy";
  case StrategyKind::Adaptive:
    return "adaptive";
  }
  return "unknown";
}

Result<StrategyKind> wootz::parseStrategyKind(const std::string &Name) {
  if (Name == "fixed")
    return StrategyKind::Fixed;
  if (Name == "greedy")
    return StrategyKind::Greedy;
  if (Name == "adaptive")
    return StrategyKind::Adaptive;
  return Error::failure("unknown exploration strategy '" + Name +
                        "' (expected fixed, greedy or adaptive)");
}

double wootz::objectiveAccuracyFloor(const PruningObjective &Objective) {
  double Floor = 0.0;
  for (const ObjectiveConstraint &C : Objective.Constraints)
    if (C.Which == Metric::Accuracy &&
        (C.Op == CompareOp::GE || C.Op == CompareOp::GT))
      Floor = std::max(Floor, C.Value);
  return Floor;
}

Result<std::unique_ptr<ExplorationStrategy>>
wootz::makeStrategy(StrategyKind Kind, const ModelSpec &Spec,
                    const std::vector<PruneConfig> &Subspace,
                    const PruningObjective &Objective,
                    const StrategyKnobs &Knobs) {
  if (Kind == StrategyKind::Fixed) {
    if (Subspace.empty())
      return Error::failure("the promising subspace is empty");
    return std::unique_ptr<ExplorationStrategy>(
        new FixedSubspaceStrategy(Spec, Subspace, Objective));
  }

  // The on-the-fly strategies walk a rate alphabet instead of a
  // subspace; validate it (tests rely on the messages).
  const std::vector<float> &Rates =
      Knobs.Rates.empty() ? standardRates() : Knobs.Rates;
  if (Rates.size() < 2 || Rates.front() != 0.0f)
    return Error::failure("the rate alphabet must start at 0 and contain "
                          "at least one pruned rate");
  if (!std::is_sorted(Rates.begin(), Rates.end()))
    return Error::failure("the rate alphabet must be ascending");
  if (Knobs.MaxRounds < 1)
    return Error::failure("StrategyKnobs::MaxRounds must be positive, got " +
                          std::to_string(Knobs.MaxRounds));

  if (Kind == StrategyKind::Greedy)
    return std::unique_ptr<ExplorationStrategy>(
        new GreedySensitivityStrategy(Spec, Objective, Knobs));
  return std::unique_ptr<ExplorationStrategy>(
      new AdaptiveStrategy(Spec, Objective, Knobs));
}
