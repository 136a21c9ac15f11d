//===- explore/strategy/FixedSubspace.h - Enumerated-subspace strategy ------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's own exploration as a strategy: one round proposing the
/// whole enumerated promising subspace in the objective's exploration
/// order (§6.2 — ascending model size for min-ModelSize, descending for
/// max-Accuracy), then done. runPruningPipeline is this strategy driven
/// through runStrategyExploration.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_EXPLORE_STRATEGY_FIXEDSUBSPACE_H
#define WOOTZ_EXPLORE_STRATEGY_FIXEDSUBSPACE_H

#include "src/explore/strategy/Strategy.h"

namespace wootz {

class FixedSubspaceStrategy : public ExplorationStrategy {
public:
  FixedSubspaceStrategy(const ModelSpec &Spec,
                        std::vector<PruneConfig> Subspace,
                        const PruningObjective &Objective);

  const char *name() const override { return "fixed"; }
  /// The single round is emitted in exploration order, which IS the
  /// objective's preference order.
  bool proposalsPreferenceOrdered() const override { return true; }
  Result<std::vector<PruneConfig>>
  propose(const ObservedResults &Observed) override;

private:
  std::vector<PruneConfig> Ordered;
  bool Proposed = false;
};

} // namespace wootz

#endif // WOOTZ_EXPLORE_STRATEGY_FIXEDSUBSPACE_H
