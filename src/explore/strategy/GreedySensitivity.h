//===- explore/strategy/GreedySensitivity.h - Greedy sensitivity search -----===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Subspace-free pruning, the extension the paper flags as future work
/// (§4): a greedy sensitivity search that generates configurations on
/// the fly. Starting from the unpruned configuration, each round
/// proposes every single-module rate bump along the alphabet; after
/// observing the round it commits the bump with the highest fine-tuned
/// accuracy that stays at or above the objective's accuracy floor, and
/// stops when no bump qualifies, the commit budget is spent, or every
/// module sits at the heaviest rate. Run through the driver with
/// per-module blocks, a (module, rate) tuning block pre-trains the first
/// time any candidate needs it and is reused by every later candidate.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_EXPLORE_STRATEGY_GREEDYSENSITIVITY_H
#define WOOTZ_EXPLORE_STRATEGY_GREEDYSENSITIVITY_H

#include "src/explore/strategy/Strategy.h"

namespace wootz {

class GreedySensitivityStrategy : public ExplorationStrategy {
public:
  /// One committed rate bump.
  struct Commit {
    int Module = 0;          ///< Module whose rate was bumped.
    float Rate = 0.0f;       ///< New rate of that module.
    size_t ObservedIndex = 0;///< The winning proposal's observed index.
    PruneConfig Config;      ///< Configuration after the commit.
  };

  /// \p Knobs.Rates must be validated by the caller (makeStrategy does);
  /// \p Knobs.MaxRounds bounds the committed bumps.
  GreedySensitivityStrategy(const ModelSpec &Spec,
                            const PruningObjective &Objective,
                            const StrategyKnobs &Knobs);

  const char *name() const override { return "greedy"; }
  // A greedy round needs EVERY candidate's accuracy before it can pick
  // the best — proposals carry no preference order, so the driver must
  // not cancel within a round (the default false says so).
  Result<std::vector<PruneConfig>>
  propose(const ObservedResults &Observed) override;

  /// The committed trajectory so far; commit I digests round I, so it
  /// pairs with StrategyRunResult::RoundsInfo[I].
  const std::vector<Commit> &commits() const { return Commits; }

private:
  int ModuleCount;
  std::vector<float> Rates;
  int MaxCommits;
  double Threshold;

  std::vector<int> RateIndex; ///< Per module, index into Rates.
  PruneConfig Current;
  std::vector<int> RoundModules; ///< Module bumped by each live proposal.
  size_t RoundStart = 0;
  std::vector<Commit> Commits;
  bool Started = false;
  bool Finished = false;
};

} // namespace wootz

#endif // WOOTZ_EXPLORE_STRATEGY_GREEDYSENSITIVITY_H
