//===- explore/strategy/FixedSubspace.cpp -------------------------------------===//

#include "src/explore/strategy/FixedSubspace.h"

#include <algorithm>

using namespace wootz;

FixedSubspaceStrategy::FixedSubspaceStrategy(
    const ModelSpec &Spec, std::vector<PruneConfig> Subspace,
    const PruningObjective &Objective)
    : Ordered(std::move(Subspace)) {
  // Ascending size; for a largest-first objective the reverse.
  std::sort(Ordered.begin(), Ordered.end(),
            [&](const PruneConfig &A, const PruneConfig &B) {
              return modelWeightCount(Spec, A) < modelWeightCount(Spec, B);
            });
  if (!Objective.exploreSmallestFirst())
    std::reverse(Ordered.begin(), Ordered.end());
}

Result<std::vector<PruneConfig>>
FixedSubspaceStrategy::propose(const ObservedResults &) {
  if (Proposed)
    return std::vector<PruneConfig>{};
  if (Ordered.empty())
    return Error::failure("the promising subspace is empty");
  Proposed = true;
  return Ordered;
}
