//===- explore/strategy/Driver.h - Strategy-driven exploration runs ---------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// runStrategyExploration() is the exploration loop — the fixed-subspace
/// pipeline (runPruningPipeline) is a one-round strategy run through it.
/// Each round it asks the strategy for the next configurations, chooses
/// the tuning blocks those proposals are missing (everything already in
/// the store or the cross-run BlockCache is reused), and runs one
/// TaskGraph: a task per pending block group and one per proposal, with
/// the dependency edges the schedule picks (see PipelineSchedule). The
/// results feed the next round — the proposal loop the paper leaves as
/// future work.
///
/// Determinism: the preparation of the full model draws first, then per
/// round one base seed expanded per block group via pretrainGroupSeed
/// (composability only), then one pre-drawn seed per proposal in
/// proposal order. Since strategies are pure functions of the observed
/// results, a rerun from the same generator seed reproduces every
/// proposal and every evaluation bit-exactly — for any Workers value and
/// either schedule, and regardless of how many blocks a warm BlockCache
/// satisfied. Span names number evaluations ("eval:<N>") and block groups
/// ("pretrain:g<N>") across the whole run.
///
/// Cancellation: under Overlap with a CancelObjective, once a finished
/// proposal satisfies the objective the rest of its round is cancelled —
/// but only when the strategy declares its rounds preference-ordered
/// (proposalsPreferenceOrdered()); an unordered round must finish, since
/// a later proposal could still win.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_EXPLORE_STRATEGY_DRIVER_H
#define WOOTZ_EXPLORE_STRATEGY_DRIVER_H

#include "src/explore/strategy/Strategy.h"

namespace wootz {

/// Per-round bookkeeping (RunLog counters "strategy.rounds",
/// "strategy.proposals" and "strategy.blocks_reused" carry the same
/// numbers live).
struct StrategyRoundInfo {
  /// Index of the round's first proposal in
  /// StrategyRunResult::Run.Evaluations.
  size_t FirstIndex = 0;
  int Proposals = 0;
  /// Tuning blocks freshly pre-trained for this round.
  int BlocksTrained = 0;
  /// Non-identity block uses served by the store or cache instead of
  /// fresh pre-training (a block's first use counts as trained, every
  /// further use as reused).
  int BlocksReused = 0;
};

/// Everything a strategy-driven run produced.
struct StrategyRunResult {
  /// The run's results with Evaluations in *proposal order* (cancelled
  /// entries flagged); Blocks accumulates every distinct block any round
  /// chose. runPruningPipeline re-sorts the evaluations by size.
  PipelineResult Run;
  int Rounds = 0;
  int Proposals = 0;
  int BlocksReused = 0;
  std::vector<StrategyRoundInfo> RoundsInfo;
  /// Proposal index of the best evaluation satisfying the objective
  /// (smallest WeightCount for min-ModelSize, highest accuracy for
  /// max-Accuracy; ties to the earliest proposal), -1 when none did.
  int WinnerIndex = -1;
  bool ObjectiveMet = false;
};

/// Runs \p Strategy to completion on \p Data under \p Options (schedule,
/// workers, composability, caches, telemetry, cancellation token; a
/// failed task stops the run); \p Objective picks the winner
/// and is what adaptive strategies steer toward — pass the same
/// objective as Options.CancelObjective to also cancel within rounds.
Result<StrategyRunResult> runStrategyExploration(
    const ModelSpec &Spec, const Dataset &Data,
    ExplorationStrategy &Strategy, const TrainMeta &Meta,
    const PipelineOptions &Options, const PruningObjective &Objective,
    Rng &Generator);

} // namespace wootz

#endif // WOOTZ_EXPLORE_STRATEGY_DRIVER_H
