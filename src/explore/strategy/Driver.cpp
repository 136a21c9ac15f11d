//===- explore/strategy/Driver.cpp --------------------------------------------===//

#include "src/explore/strategy/Driver.h"

#include "src/identifier/Identifier.h"
#include "src/identifier/TuningBlock.h"
#include "src/runtime/TaskGraph.h"
#include "src/train/BlockCache.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <thread>

using namespace wootz;

namespace {

/// The state one exploration run shares across its rounds: the trained
/// full model (the teacher), its filter scores, the tuning-block store
/// and the cross-run block cache. Construct, call prepare() once, then
/// evaluateConfig() per configuration — thread-safe across
/// configurations, which share only the teacher's read-only parameters,
/// the scores and the store.
///
/// prepare() draws from the caller's generator in a fixed order
/// (full-model preparation only; filter scoring uses its own fixed-seed
/// sampler), and evaluateConfig() draws nothing from it: every
/// evaluation derives all randomness from its pre-drawn seed.
class ExplorationEngine {
public:
  ExplorationEngine(const ModelSpec &Spec, const Dataset &Data,
                    const TrainMeta &Meta, const PipelineOptions &Options)
      : Spec(Spec), Data(Data), Meta(Meta), Options(Options), Model(Spec),
        Log(Options.Log ? *Options.Log : OwnLog),
        Cache(Options.BlockCacheConfig, &Log) {}

  /// The telemetry sink: the caller-supplied log when
  /// PipelineOptions::Log is set, a run-local one otherwise.
  RunLog &log() { return Log; }

  /// True when the caller's CancelToken has been flipped.
  bool cancelRequested() const {
    return Options.Cancel && Options.Cancel->cancelled();
  }

  /// The trained full model every pruned network derives from, filter
  /// importances (a property of that model, scored once), and the
  /// block-cache context binding. Fills \p Run's FullAccuracy and
  /// FullWeightCount.
  Error prepare(PipelineResult &Run, Rng &Generator) {
    // Cooperative cancellation: polled at every task boundary. The fixed
    // message lets callers that handed us the token tell an intentional
    // abort from a real failure.
    if (cancelRequested())
      return Error::failure("job cancelled before it started");

    Result<FullModel> Prepared =
        prepareFullModel(Model, Data, Meta, Options.CacheDir, Generator);
    if (!Prepared)
      return Prepared.takeError();
    Full.emplace(Prepared.take());
    Run.FullAccuracy = Full->Accuracy;
    FullWeightCount = modelWeightCount(Spec, unprunedConfig(Spec));
    Run.FullWeightCount = FullWeightCount;

    Result<FilterScores> Scored = scoreFilters(
        Spec, Full->Network, "full", Options.Criterion, &Data);
    if (!Scored)
      return Scored.takeError();
    ScoreMap = Scored.take();

    // The cross-run block cache is only meaningful once the teacher
    // exists: its entry addresses incorporate the teacher fingerprint and
    // the pre-training hyperparameters, so a different teacher or recipe
    // simply misses instead of resurrecting stale blocks.
    if (Cache.enabled()) {
      Cache.bindContext(BlockCache::fingerprintTeacher(Full->Network),
                        BlockCache::hashPretrainMeta(Meta));
      // One bump per bound context: a run that rebinds (fresh teacher)
      // shows up, and a shared-cache fleet can compare counts to hits.
      Log.bump("cache.context_bound");
    }
    return Error::success();
  }

  /// Pre-trains one block group against the teacher, seeded with \p Seed.
  Result<GroupPretrainStats> pretrain(const std::vector<TuningBlock> &Group,
                                      uint64_t Seed) {
    if (cancelRequested())
      return Error::failure("job cancelled");
    Rng GroupGen(Seed);
    return pretrainGroup(Model, Full->Network, "full", Group, Data, Meta,
                         Store, GroupGen, &ScoreMap, &Cache);
  }

  /// Builds, initializes and fine-tunes \p Config with the pre-drawn
  /// \p Seed. \p Composite lists the tuning blocks to overlay from the
  /// store (null for baseline default networks).
  Result<EvaluatedConfig>
  evaluateConfig(const PruneConfig &Config,
                 const std::vector<TuningBlock> *Composite, uint64_t Seed) {
    if (cancelRequested())
      return Error::failure("job cancelled");

    Rng ConfigGen(Seed);
    Result<AssembledNetwork> Assembled = buildPrunedNetwork(
        Model, Config, Full->Network, "full", Composite ? &Store : nullptr,
        Composite, ConfigGen, &ScoreMap);
    if (!Assembled)
      return Assembled.takeError();

    // Concurrent fine-tunes may share the teacher (distillation): each
    // forwards it through a private ExecContext, so only its read-only
    // parameters are shared across the workers.
    const TrainResult Trained =
        Options.DistillAlpha > 0.0f
            ? trainClassifierDistilled(
                  Assembled->Network, Assembled->InputNode,
                  Assembled->LogitsNode, Full->Network, Assembled->InputNode,
                  "full/" + Spec.Layers.back().Name, Data, Meta,
                  Meta.FinetuneSteps, Meta.FinetuneLearningRate,
                  Options.DistillAlpha, Options.DistillTemperature,
                  ConfigGen)
            : trainClassifier(Assembled->Network, Assembled->InputNode,
                              Assembled->LogitsNode, Data, Meta,
                              Meta.FinetuneSteps, Meta.FinetuneLearningRate,
                              ConfigGen);

    EvaluatedConfig Evaluated = unevaluated(Config);
    Evaluated.InitAccuracy = Trained.InitialAccuracy;
    Evaluated.FinalAccuracy = Trained.FinalAccuracy;
    Evaluated.StepsToBest = Trained.StepsToBest;
    Evaluated.TrainSeconds = Trained.Seconds;
    if (Options.KeepCurves)
      Evaluated.Curve = Trained.Curve;
    Evaluated.BlocksUsed = Assembled->BlocksUsed;
    if (Options.KeepNetworks)
      Evaluated.Network =
          std::make_shared<AssembledNetwork>(Assembled.take());
    return Evaluated;
  }

  /// \p Config with only the fields its rates determine (the record of a
  /// cancelled evaluation).
  EvaluatedConfig unevaluated(const PruneConfig &Config) const {
    EvaluatedConfig Out;
    Out.Config = Config;
    Out.WeightCount = modelWeightCount(Spec, Config);
    Out.SizeFraction = static_cast<double>(Out.WeightCount) /
                       static_cast<double>(FullWeightCount);
    return Out;
  }

  CheckpointStore &store() { return Store; }
  BlockCache &blockCache() { return Cache; }

private:
  const ModelSpec &Spec;
  const Dataset &Data;
  const TrainMeta &Meta;
  const PipelineOptions &Options;
  const MultiplexingModel Model;
  // Telemetry goes to the caller's log when one is supplied (live
  // observers sample it mid-run); otherwise to the run-local OwnLog.
  RunLog OwnLog;
  RunLog &Log;
  CheckpointStore Store;
  BlockCache Cache;
  std::optional<FullModel> Full;
  FilterScores ScoreMap;
  size_t FullWeightCount = 0;
};

} // namespace

Result<StrategyRunResult> wootz::runStrategyExploration(
    const ModelSpec &Spec, const Dataset &Data,
    ExplorationStrategy &Strategy, const TrainMeta &Meta,
    const PipelineOptions &Options, const PruningObjective &Objective,
    Rng &Generator) {
  if (Options.Workers < 0)
    return Error::failure("PipelineOptions::Workers must be non-negative "
                          "(0 means one per hardware thread), got " +
                          std::to_string(Options.Workers));
  const unsigned Workers =
      Options.Workers == 0
          ? std::max(1u, std::thread::hardware_concurrency())
          : static_cast<unsigned>(Options.Workers);
  const bool Overlap = Options.Schedule == PipelineSchedule::Overlap;
  // Within-round cancellation needs a preference order over the round:
  // only a strategy that emits best-first rounds allows discarding the
  // tail once an earlier proposal satisfies the objective.
  const bool CancelWithinRound = Overlap && Options.CancelObjective &&
                                 Strategy.proposalsPreferenceOrdered();

  StrategyRunResult Out;
  PipelineResult &Run = Out.Run;
  ExplorationEngine Engine(Spec, Data, Meta, Options);
  RunLog &Log = Engine.log();
  if (Error E = Engine.prepare(Run, Generator))
    return E;

  std::set<std::string> SeenBlockIds;
  size_t EvalCounter = 0;  ///< Global eval-span numbering across rounds.
  size_t GroupCounter = 0; ///< Global pretrain-span numbering.
  double FirstLossSum = 0.0, LastLossSum = 0.0;
  int LossGroups = 0;

  // A pure strategy over a finite rate lattice terminates, but a buggy
  // one must not hang the serve worker: cap the rounds far above any
  // real exploration.
  const int MaxDriverRounds = 4096;
  for (int RoundIndex = 0; RoundIndex < MaxDriverRounds; ++RoundIndex) {
    if (Engine.cancelRequested())
      return Error::failure("job cancelled");
    Result<std::vector<PruneConfig>> Next = Strategy.propose(Run.Evaluations);
    if (!Next)
      return Next.takeError();
    if (Next->empty())
      break;
    const std::vector<PruneConfig> Proposals = Next.take();
    for (const PruneConfig &Config : Proposals)
      if (static_cast<int>(Config.size()) != Spec.moduleCount())
        return Error::failure(
            "strategy '" + std::string(Strategy.name()) +
            "' proposed a configuration with " +
            std::to_string(Config.size()) + " rates; the model has " +
            std::to_string(Spec.moduleCount()) + " modules");

    StrategyRoundInfo Info;
    Info.FirstIndex = Run.Evaluations.size();
    Info.Proposals = static_cast<int>(Proposals.size());
    Log.bump("strategy.rounds");
    Log.bump("strategy.proposals", Info.Proposals);

    // The round's tuning blocks and composite vectors. Blocks live in
    // the engine's store across rounds, so only what this round's
    // proposals are missing gets pre-trained.
    std::vector<TuningBlock> RoundBlocks;
    std::vector<std::vector<int>> CompositeVectors;
    size_t NeededBlockUses = 0;
    if (Options.UseComposability) {
      if (Options.UseIdentifier) {
        IdentifierResult Identified = identifyTuningBlocks(
            Spec.moduleCount(), Proposals, subspaceRateAlphabet(Proposals));
        RoundBlocks = std::move(Identified.Blocks);
        CompositeVectors = std::move(Identified.CompositeVectors);
      } else {
        RoundBlocks = perModuleBlocks(Proposals);
        CompositeVectors = coverWithBlocks(Proposals, RoundBlocks);
      }
      for (const std::vector<int> &Vector : CompositeVectors)
        for (int BlockIndex : Vector)
          NeededBlockUses += !RoundBlocks[BlockIndex].isIdentity();
      for (const TuningBlock &Block : RoundBlocks)
        if (SeenBlockIds.insert(Block.id()).second)
          Run.Blocks.push_back(Block);
    }

    // The round's randomness, drawn before anything runs: one base seed
    // for the block groups, then one seed per proposal. Group seeds
    // depend on the base seed and the group's block ids only, never on
    // what the store or cache already holds, so warm and cold runs draw
    // identically and the schedule cannot change a result.
    PendingGroups Pending;
    if (Options.UseComposability)
      Pending = pendingBlockGroups(RoundBlocks, Engine.store(),
                                   &Engine.blockCache(), Generator.next());
    const std::vector<std::vector<TuningBlock>> &Groups = Pending.Groups;
    const size_t Count = Proposals.size();
    std::vector<uint64_t> Seeds(Count);
    for (uint64_t &Seed : Seeds)
      Seed = Generator.next();
    const size_t Base = Run.Evaluations.size();
    Run.Evaluations.resize(Base + Count);

    // Which groups each proposal's composite vector draws from, and per
    // group the earliest proposal it serves (its scheduling urgency).
    std::map<std::string, size_t> GroupOfBlock;
    for (size_t G = 0; G < Groups.size(); ++G)
      for (const TuningBlock &Block : Groups[G])
        GroupOfBlock[Block.id()] = G;
    std::vector<std::vector<size_t>> EvalGroups(Count);
    std::vector<size_t> GroupMinPos(Groups.size(), Count);
    for (size_t P = 0; P < CompositeVectors.size(); ++P) {
      std::set<size_t> NeededGroups;
      for (int BlockIndex : CompositeVectors[P]) {
        auto It = GroupOfBlock.find(RoundBlocks[BlockIndex].id());
        if (It != GroupOfBlock.end())
          NeededGroups.insert(It->second);
      }
      EvalGroups[P].assign(NeededGroups.begin(), NeededGroups.end());
      for (size_t G : NeededGroups)
        GroupMinPos[G] = std::min(GroupMinPos[G], P);
    }

    // One graph for the round: a task per pending block group and one
    // per proposal. The schedule is the choice of edges — under EvalOnly
    // every evaluation waits for every group (pre-train, then evaluate);
    // under Overlap it waits only for the groups it draws from, so a
    // small configuration fine-tunes while unrelated blocks still
    // pre-train.
    TaskGraph Graph(&Log);
    std::vector<GroupPretrainStats> GroupStats(Groups.size());
    std::vector<TaskId> GroupTask(Groups.size());
    for (size_t G = 0; G < Groups.size(); ++G)
      GroupTask[G] = Graph.add(
          "pretrain:g" + std::to_string(GroupCounter + G), {},
          -static_cast<int>(GroupMinPos[G]), [&, G]() -> Error {
            Result<GroupPretrainStats> Stats =
                Engine.pretrain(Groups[G], Pending.Seeds[G]);
            if (!Stats)
              return Stats.takeError();
            GroupStats[G] = *Stats;
            return Error::success();
          });

    std::vector<TaskId> EvalTask(Count);
    for (size_t P = 0; P < Count; ++P) {
      std::vector<TaskId> Deps;
      if (Overlap)
        for (size_t G : EvalGroups[P])
          Deps.push_back(GroupTask[G]);
      else
        Deps = GroupTask;
      EvalTask[P] = Graph.add(
          "eval:" + std::to_string(EvalCounter + P), std::move(Deps),
          -static_cast<int>(P), [&, P]() -> Error {
            std::vector<TuningBlock> Composite;
            if (Options.UseComposability)
              for (int BlockIndex : CompositeVectors[P])
                Composite.push_back(RoundBlocks[BlockIndex]);
            Result<EvaluatedConfig> Evaluated = Engine.evaluateConfig(
                Proposals[P], Options.UseComposability ? &Composite : nullptr,
                Seeds[P]);
            if (!Evaluated)
              return Evaluated.takeError();
            Run.Evaluations[Base + P] = Evaluated.take();
            // Preference-ordered rounds: once this proposal satisfies the
            // objective, nothing later in the round can beat it — stop
            // paying for it. Earlier proposals stay: they could still win.
            if (CancelWithinRound) {
              const EvaluatedConfig &Mine = Run.Evaluations[Base + P];
              if (Options.CancelObjective->satisfied(Mine.WeightCount,
                                                     Mine.FinalAccuracy)) {
                for (size_t Later = P + 1; Later < Count; ++Later)
                  Graph.cancel(EvalTask[Later]);
                for (size_t G = 0; G < Groups.size(); ++G)
                  if (GroupMinPos[G] > P)
                    Graph.cancel(GroupTask[G]);
              }
            }
            return Error::success();
          });
    }

    if (Error E = Graph.run(Workers))
      return E;

    // Cancelled proposals still appear in the observed sequence (the
    // strategy skips them), with the size fields the config determines.
    for (size_t P = 0; P < Count; ++P)
      if (Graph.state(EvalTask[P]) == TaskState::Cancelled) {
        Run.Evaluations[Base + P] = Engine.unevaluated(Proposals[P]);
        Run.Evaluations[Base + P].Cancelled = true;
      }

    Run.Pretrain.BlockCount += Pending.BlockCount;
    Run.Pretrain.GroupCount += static_cast<int>(Groups.size());
    for (size_t G = 0; G < Groups.size(); ++G) {
      if (Graph.state(GroupTask[G]) != TaskState::Done)
        continue;
      Info.BlocksTrained += static_cast<int>(Groups[G].size());
      Run.Pretrain.GroupSeconds.push_back(GroupStats[G].Seconds);
      Run.Pretrain.Seconds += GroupStats[G].Seconds;
      FirstLossSum += GroupStats[G].FirstLoss;
      LastLossSum += GroupStats[G].LastLoss;
      ++LossGroups;
    }

    Info.BlocksReused = static_cast<int>(NeededBlockUses) -
                        Info.BlocksTrained;
    Log.bump("strategy.blocks_reused", Info.BlocksReused);
    Out.BlocksReused += Info.BlocksReused;
    Out.Proposals += Info.Proposals;
    ++Out.Rounds;
    Out.RoundsInfo.push_back(Info);
    EvalCounter += Count;
    GroupCounter += Groups.size();
  }

  if (LossGroups > 0) {
    Run.Pretrain.FirstLoss = FirstLossSum / LossGroups;
    Run.Pretrain.LastLoss = LastLossSum / LossGroups;
  }

  Out.WinnerIndex = bestEvaluation(Run, Objective);
  Out.ObjectiveMet = Out.WinnerIndex >= 0;

  for (const EvaluatedConfig &E : Run.Evaluations)
    Run.EvaluationSeconds += E.TrainSeconds;
  Run.Telemetry = Log.snapshot();
  if (!Options.TelemetryPath.empty())
    if (Error E = Log.writeJsonl(Options.TelemetryPath))
      return E;
  return Out;
}
