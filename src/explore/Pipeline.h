//===- explore/Pipeline.h - End-to-end pruning pipeline ------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end pipeline behind the evaluation section: prepare the
/// full model, (optionally) identify and pre-train tuning blocks, then
/// evaluate every configuration of the promising subspace in exploration
/// order — as the baseline ("default networks") or the composability-
/// based method ("block-trained networks"). runPruningPipeline() runs the
/// subspace as a one-round FixedSubspaceStrategy through the strategy
/// driver (strategy/Driver.h), the only exploration loop. Per-
/// configuration results feed summarizeExploration(), which replays the
/// paper's multi-node schedule against an objective to produce Table
/// 3/4/5 rows without retraining anything.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_EXPLORE_PIPELINE_H
#define WOOTZ_EXPLORE_PIPELINE_H

#include "src/explore/Cluster.h"
#include "src/explore/Objective.h"
#include "src/runtime/Cancel.h"
#include "src/runtime/RunLog.h"
#include "src/train/Assembly.h"
#include "src/train/ModelZoo.h"
#include "src/train/Pretrainer.h"

#include <memory>

namespace wootz {

/// One evaluated configuration of the promising subspace.
struct EvaluatedConfig {
  PruneConfig Config;
  size_t WeightCount = 0;
  double SizeFraction = 0.0; ///< WeightCount / full model's.
  double InitAccuracy = 0.0; ///< Before fine-tuning (init / init+).
  double FinalAccuracy = 0.0;
  int StepsToBest = 0;
  double TrainSeconds = 0.0;
  std::vector<AccuracyPoint> Curve; ///< Kept when Options.KeepCurves.
  std::vector<std::string> BlocksUsed;
  /// True when the runtime cancelled this evaluation before it started
  /// (a smaller config already satisfied Options.CancelObjective); the
  /// accuracy/timing fields are meaningless then.
  bool Cancelled = false;
  /// The fine-tuned network itself, retained only when
  /// PipelineOptions::KeepNetworks — the serving layer registers the
  /// winning pruned network from here. Shared so EvaluatedConfig stays
  /// copyable (Graph is move-only).
  std::shared_ptr<AssembledNetwork> Network;
};

/// How a round's block pre-training and evaluations are ordered. Both
/// schedules run one TaskGraph per round with a task per pending block
/// group and one per configuration; they differ only in the evaluations'
/// dependency edges. Every group and every evaluation trains from its own
/// pre-drawn seed, so without a CancelObjective the two schedules give
/// bit-identical results for any Workers value.
enum class PipelineSchedule {
  /// Pre-train, then evaluate: every evaluation waits for every block
  /// group of its round.
  EvalOnly,
  /// Block-ready overlap: an evaluation waits only for the groups its
  /// composite vector draws from, so early (small) configs fine-tune
  /// while unrelated blocks still pre-train. Once a finished
  /// configuration provably satisfies Options.CancelObjective, every
  /// not-yet-started evaluation that cannot beat it is cancelled.
  Overlap,
};

/// Pipeline knobs.
struct PipelineOptions {
  /// false: baseline (train default networks); true: composability-based.
  bool UseComposability = false;
  /// Blocks from the hierarchical identifier instead of one block per
  /// pruned module (only meaningful with UseComposability).
  bool UseIdentifier = false;
  /// Directory for the trained-full-model cache; empty disables caching.
  std::string CacheDir;
  /// Cross-run tuning-block cache (see train/BlockCache.h): blocks
  /// already on disk for this (teacher, hyperparameters) context skip
  /// pre-training entirely, and freshly trained blocks are published
  /// back. Empty Directory disables it. Hits land the cached weights in
  /// place of freshly trained ones, so a warm run's evaluations match a
  /// prior run's, not a cold run with a different seed.
  CacheConfig BlockCacheConfig;
  /// Filter-importance criterion for weight inheritance and block
  /// initialization (the paper uses l1 norms; §8 surveys the others).
  ImportanceCriterion Criterion = ImportanceCriterion::L1Norm;
  /// Weight of the knowledge-distillation term during fine-tuning
  /// (0 disables; the trained full model is the teacher). The §8-cited
  /// whole-network Teacher-Student scheme, composable with block
  /// pre-training.
  float DistillAlpha = 0.0f;
  float DistillTemperature = 2.0f;
  /// Retain per-config accuracy curves (Figure 6/7 benches).
  bool KeepCurves = false;
  /// Worker threads (the in-process substitute for the paper's MPI
  /// ranks). 1 runs serially; 0 means "one per hardware thread";
  /// negative values are rejected with an error. Results are identical
  /// for every Workers value (seeds are drawn up front; only which
  /// evaluations a CancelObjective cancels may vary) — only the
  /// per-configuration *timings* change, so keep Workers = 1 when the
  /// measured costs feed summarizeExploration() on an oversubscribed
  /// machine. A failed task stops the run for any Workers value.
  int Workers = 1;
  /// See PipelineSchedule.
  PipelineSchedule Schedule = PipelineSchedule::EvalOnly;
  /// Overlap only: when a completed configuration satisfies this
  /// objective, evaluations later in the exploration order (which
  /// cannot beat it) are cancelled. Null disables cancellation. Must
  /// outlive the run.
  const PruningObjective *CancelObjective = nullptr;
  /// When non-empty, the run's telemetry is also written there as JSONL
  /// (one span object per task, then one counters object).
  std::string TelemetryPath;
  /// External telemetry sink. When non-null, spans and counters are
  /// recorded there instead of a run-local log, so an observer (the serve
  /// job API) can sample a *live* run via RunLog::counters(). The log
  /// must outlive the run; PipelineResult::Telemetry still snapshots it
  /// at completion.
  RunLog *Log = nullptr;
  /// Job-owned cancellation token. When non-null, the run polls it at
  /// task boundaries (group pre-training, each evaluation) and aborts
  /// with a "job cancelled" error; the TaskGraph's fail-fast then
  /// cascade-cancels everything not yet started. Must outlive the run.
  const CancelToken *Cancel = nullptr;
  /// Keep each evaluation's fine-tuned network in
  /// EvaluatedConfig::Network (memory scales with the subspace; meant
  /// for serving, not for large sweeps).
  bool KeepNetworks = false;
};

/// Everything a pipeline run produced.
struct PipelineResult {
  double FullAccuracy = 0.0;
  size_t FullWeightCount = 0;
  /// Evaluations sorted by ascending model size — the §6.2 exploration
  /// order for the min-ModelSize objective.
  std::vector<EvaluatedConfig> Evaluations;
  /// Tuning blocks pre-trained (empty for the baseline).
  std::vector<TuningBlock> Blocks;
  PretrainStats Pretrain;
  double EvaluationSeconds = 0.0; ///< Total fine-tuning time, all configs.
  /// Span log and counters of this run (always Measured; pre-training
  /// and evaluations are recorded whatever the schedule).
  RunTelemetry Telemetry;
};

/// Runs the pipeline for \p Subspace on \p Data: a FixedSubspaceStrategy
/// through runStrategyExploration(), exploring in
/// Options.CancelObjective's order (smallest first when it is null),
/// with the evaluations then stored by ascending model size. Fails on an
/// empty subspace before any training.
Result<PipelineResult> runPruningPipeline(const ModelSpec &Spec,
                                          const Dataset &Data,
                                          std::vector<PruneConfig> Subspace,
                                          const TrainMeta &Meta,
                                          const PipelineOptions &Options,
                                          Rng &Generator);

/// A Table 3-style row derived from a pipeline run.
struct ExplorationSummary {
  int ConfigsEvaluated = 0;
  double Seconds = 0.0; ///< Exploration makespan + pre-training share.
  int WinnerIndex = -1;
  double WinnerSizeFraction = 0.0; ///< 0 when no winner.
  double PretrainSeconds = 0.0;    ///< This run's share (already counted).
  double OverheadFraction = 0.0;   ///< PretrainSeconds / Seconds.
  /// False: the row comes from the simulated multi-node schedule.
  /// True: from a run's measured telemetry (see summarizeMeasuredRun).
  bool Measured = false;
};

/// Replays the multi-node exploration schedule over \p Run's measured
/// per-configuration times against \p Objective.
ExplorationSummary summarizeExploration(const PipelineResult &Run,
                                        const PruningObjective &Objective,
                                        int Nodes);

/// Measured-parallel counterpart of summarizeExploration(): summarizes
/// what the runtime scheduler actually did, straight from \p Run's
/// telemetry — makespan instead of a simulated schedule, cancelled
/// evaluations excluded, overhead as the pre-training share of total
/// busy time. WinnerIndex is the exploration-order position of the first
/// non-cancelled configuration satisfying \p Objective.
ExplorationSummary summarizeMeasuredRun(const PipelineResult &Run,
                                        const PruningObjective &Objective);

} // namespace wootz

#endif // WOOTZ_EXPLORE_PIPELINE_H
