//===- explore/strategy/Strategy.h - Pluggable exploration strategies -------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exploration-strategy layer between subspace definition and
/// pipeline execution — the paper fixes the promising subspace up front
/// and flags on-the-fly configuration generation as future work (§4);
/// this interface makes both interchangeable. A strategy is a pure
/// proposal source: the driver (strategy/Driver.h), the only exploration
/// loop, asks it for the next round of configurations, evaluates them
/// (tuning blocks, TaskGraph scheduling, cancellation), and feeds every
/// result back before the next round.
///
/// Determinism contract: a strategy must be a pure function of its
/// construction parameters and the observed-result sequence — no
/// wall-clock reads, no global randomness. Replaying a strategy against
/// the same observation sequence must propose the identical
/// configuration lists (tests/StrategyTest.cpp enforces this for every
/// implementation). All training randomness lives in the driver's
/// pre-drawn per-proposal seeds, never in the strategy.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_EXPLORE_STRATEGY_STRATEGY_H
#define WOOTZ_EXPLORE_STRATEGY_STRATEGY_H

#include "src/explore/Objective.h"
#include "src/explore/Pipeline.h"

#include <memory>

namespace wootz {

/// Everything a strategy may inspect when proposing: the evaluations of
/// all previous rounds, in proposal order. Cancelled evaluations are
/// present but flagged (EvaluatedConfig::Cancelled) — their accuracy
/// fields are meaningless and strategies must skip them.
using ObservedResults = std::vector<EvaluatedConfig>;

/// A pluggable source of pruning configurations.
class ExplorationStrategy {
public:
  virtual ~ExplorationStrategy() = default;

  /// Diagnostic / serve-API name ("fixed", "greedy", "adaptive").
  virtual const char *name() const = 0;

  /// The next round of configurations to evaluate, given everything
  /// observed so far. An empty vector ends the exploration. The driver
  /// appends one result per proposal (in proposal order) to the sequence
  /// it passes next time, so a strategy can locate its own round as the
  /// trailing entries.
  virtual Result<std::vector<PruneConfig>>
  propose(const ObservedResults &Observed) = 0;

  /// True when each round's proposals are emitted in the objective's
  /// preference order (best candidate first). Only then may the driver
  /// cancel the rest of a round once an earlier proposal satisfies the
  /// cancellation objective — for an unordered round nothing can be
  /// pruned, since a later proposal could still win.
  virtual bool proposalsPreferenceOrdered() const { return false; }
};

/// The built-in strategies.
enum class StrategyKind { Fixed, Greedy, Adaptive };

/// Name for the serve API and diagnostics ("fixed", "greedy",
/// "adaptive").
const char *strategyKindName(StrategyKind Kind);

/// Parses a strategy name. Unknown names fail with an error that lists
/// every valid name (the serve API surfaces it verbatim as a 400).
Result<StrategyKind> parseStrategyKind(const std::string &Name);

/// Knobs shared by the built-in strategies (each documents its own
/// interpretation; unused knobs are ignored).
struct StrategyKnobs {
  /// Ascending pruning-rate alphabet including 0 (greedy/adaptive bump
  /// module rates along it). Empty selects standardRates().
  std::vector<float> Rates;
  /// Greedy: upper bound on committed bumps. Adaptive: upper bound on
  /// proposal rounds.
  int MaxRounds = 24;
  /// Adaptive: accuracy headroom above the constraint floor required
  /// before the step size is allowed to grow aggressively.
  double AccuracyMargin = 0.02;
};

/// The accuracy floor the objective's constraints impose (the largest
/// value of any "Accuracy >= v" / "Accuracy > v" constraint; 0 when the
/// objective has none). Strategies use it to accept or reject proposals
/// before the full objective — which may also bound the model size — is
/// reachable.
double objectiveAccuracyFloor(const PruningObjective &Objective);

/// Builds a strategy. \p Subspace is the enumerated promising subspace
/// (required non-empty for Fixed, used only as a rate-alphabet fallback
/// by the others when \p Knobs.Rates is empty). Fails when the knobs are
/// invalid (degenerate rate alphabet, non-positive round bound).
Result<std::unique_ptr<ExplorationStrategy>>
makeStrategy(StrategyKind Kind, const ModelSpec &Spec,
             const std::vector<PruneConfig> &Subspace,
             const PruningObjective &Objective, const StrategyKnobs &Knobs);

} // namespace wootz

#endif // WOOTZ_EXPLORE_STRATEGY_STRATEGY_H
