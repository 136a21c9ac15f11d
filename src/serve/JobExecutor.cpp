//===- serve/JobExecutor.cpp -----------------------------------------------===//

#include "src/serve/JobExecutor.h"

#include "src/data/Synthetic.h"
#include "src/explore/strategy/Driver.h"
#include "src/plan/Plan.h"
#include "src/serve/ArtifactStore.h"
#include "src/serve/ModelStore.h"
#include "src/support/File.h"
#include "src/support/Json.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <chrono>

using namespace wootz;
using namespace wootz::serve;

//===----------------------------------------------------------------------===//
// Submission-body parsing (shared by submit-side 400s and claim-side
// execution)
//===----------------------------------------------------------------------===//

namespace {

/// "true"/"false" (the tokens the flat parser hands back for JSON
/// booleans) with a default for absent keys.
Result<bool> boolField(const std::map<std::string, std::string> &Body,
                       const std::string &Key, bool Default) {
  auto It = Body.find(Key);
  if (It == Body.end())
    return Default;
  if (It->second == "true")
    return true;
  if (It->second == "false")
    return false;
  return Error::failure("field '" + Key + "' must be true or false");
}

Result<long long>
integerField(const std::map<std::string, std::string> &Body,
             const std::string &Key, long long Default) {
  auto It = Body.find(Key);
  if (It == Body.end())
    return Default;
  Result<long long> Value = parseInteger(It->second);
  if (!Value)
    return Error::failure("field '" + Key + "' must be an integer");
  return *Value;
}

Result<double> doubleField(const std::map<std::string, std::string> &Body,
                           const std::string &Key, double Default) {
  auto It = Body.find(Key);
  if (It == Body.end())
    return Default;
  Result<double> Value = parseDouble(It->second);
  if (!Value)
    return Error::failure("field '" + Key + "' must be a number");
  return *Value;
}

} // namespace

Result<JobSpec>
wootz::serve::parseJobSpec(const std::map<std::string, std::string> &Body,
                           const ModelStore *Store, double DefaultScale) {
  JobSpec J;

  for (const char *Key : {"model", "subspace", "meta", "objective"})
    if (!Body.count(Key))
      return Error::failure(std::string("missing required field '") + Key +
                            "'");

  // "model" is either inline Prototxt or the id of an uploaded model;
  // ids are checked first (a bare id is never valid Prototxt, so the two
  // cannot collide).
  std::string ModelText = Body.at("model");
  if (Store) {
    Result<std::string> Stored = Store->prototxtFor(ModelText);
    if (Stored)
      ModelText = Stored.take();
  }
  Result<ModelSpec> Spec = parseModelSpec(ModelText);
  if (!Spec)
    return Error::failure("model: " + Spec.message());
  J.Spec = Spec.take();
  Result<std::vector<PruneConfig>> Subspace =
      parseSubspaceSpec(Body.at("subspace"));
  if (!Subspace)
    return Error::failure("subspace: " + Subspace.message());
  J.Subspace = Subspace.take();
  Result<TrainMeta> Meta = parseTrainMeta(Body.at("meta"));
  if (!Meta)
    return Error::failure("meta: " + Meta.message());
  J.Meta = Meta.take();
  Result<PruningObjective> Objective = parseObjective(Body.at("objective"));
  if (!Objective)
    return Error::failure("objective: " + Objective.message());
  J.Objective = Objective.take();

  // Subspace rates must fit the model: every configuration carries one
  // rate per convolution module.
  for (const PruneConfig &Config : J.Subspace)
    if (static_cast<int>(Config.size()) != J.Spec.moduleCount())
      return Error::failure(
          "subspace configurations carry " +
          std::to_string(Config.size()) + " rates but the model has " +
          std::to_string(J.Spec.moduleCount()) + " modules");

  Result<bool> Composability = boolField(Body, "composability", true);
  if (!Composability)
    return Error::failure(Composability.message());
  J.UseComposability = *Composability;
  Result<bool> Identifier = boolField(Body, "identifier", true);
  if (!Identifier)
    return Error::failure(Identifier.message());
  J.UseIdentifier = *Identifier;

  if (auto It = Body.find("schedule"); It != Body.end()) {
    if (It->second == "overlap")
      J.Schedule = PipelineSchedule::Overlap;
    else if (It->second == "evalonly")
      J.Schedule = PipelineSchedule::EvalOnly;
    else
      return Error::failure("schedule must be \"overlap\" or \"evalonly\"");
  }

  Result<long long> PipelineWorkers = integerField(Body, "workers", 2);
  if (!PipelineWorkers)
    return Error::failure(PipelineWorkers.message());
  if (*PipelineWorkers < 0 || *PipelineWorkers > 64)
    return Error::failure("workers must be in [0, 64]");
  J.PipelineWorkers = static_cast<int>(*PipelineWorkers);

  Result<double> DistillAlpha = doubleField(Body, "distill_alpha", 0.0);
  if (!DistillAlpha)
    return Error::failure(DistillAlpha.message());
  J.DistillAlpha = static_cast<float>(*DistillAlpha);
  // Any schedule composes with distillation (concurrent fine-tunes give
  // the shared teacher private execution contexts); only the weight's
  // range needs validating.
  if (J.DistillAlpha < 0.0f || J.DistillAlpha > 1.0f)
    return Error::failure("distill_alpha must be in [0, 1]");

  // Unknown strategy/criterion names are a 400 listing the valid names,
  // never a silent fallback to the default.
  if (auto It = Body.find("strategy"); It != Body.end()) {
    Result<StrategyKind> Kind = parseStrategyKind(It->second);
    if (!Kind)
      return Error::failure("strategy: " + Kind.message());
    J.Strategy = *Kind;
  }
  if (auto It = Body.find("criterion"); It != Body.end()) {
    Result<ImportanceCriterion> Criterion =
        parseImportanceCriterion(It->second);
    if (!Criterion)
      return Error::failure("criterion: " + Criterion.message());
    J.Criterion = *Criterion;
  }

  Result<long long> MaxRounds = integerField(Body, "max_rounds", 24);
  if (!MaxRounds)
    return Error::failure(MaxRounds.message());
  if (*MaxRounds < 1 || *MaxRounds > 256)
    return Error::failure("max_rounds must be in [1, 256]");
  J.MaxRounds = static_cast<int>(*MaxRounds);

  Result<double> Margin = doubleField(Body, "accuracy_margin", 0.02);
  if (!Margin)
    return Error::failure(Margin.message());
  if (*Margin < 0.0 || *Margin > 0.5)
    return Error::failure("accuracy_margin must be in [0, 0.5]");
  J.AccuracyMargin = *Margin;

  Result<long long> Seed = integerField(Body, "seed", 7);
  if (!Seed)
    return Error::failure(Seed.message());
  J.Seed = static_cast<uint64_t>(*Seed);

  Result<double> Scale = doubleField(Body, "dataset_scale", DefaultScale);
  if (!Scale)
    return Error::failure(Scale.message());
  if (*Scale <= 0.0 || *Scale > 4.0)
    return Error::failure("dataset_scale must be in (0, 4]");
  J.DatasetScale = *Scale;

  return J;
}

//===----------------------------------------------------------------------===//
// JobExecutor
//===----------------------------------------------------------------------===//

JobExecutor::JobExecutor(JobExecutorOptions Options, JobQueue &Queue,
                         ArtifactStore &Artifacts, ModelRegistry *Registry,
                         RunLog *Log, const ModelStore *Store)
    : Options(Options), Queue(Queue), Artifacts(Artifacts),
      Registry(Registry), Log(Log), Store(Store) {
  Queue.setNotifier([this] {
    std::lock_guard<std::mutex> Lock(Mutex);
    WorkHint = true;
    WorkReady.notify_all();
  });
  if (this->Options.ExecuteJobs) {
    const int Count = std::max(1, this->Options.Workers);
    Workers.reserve(static_cast<size_t>(Count));
    for (int I = 0; I < Count; ++I)
      Workers.emplace_back([this] { workerLoop(); });
    // Work submitted before the queue had a notifier (journals picked up
    // at startup) is already claimable.
    if (Queue.queuedCount() > 0) {
      std::lock_guard<std::mutex> Lock(Mutex);
      WorkHint = true;
      WorkReady.notify_all();
    }
  }
  Maintenance = std::thread([this] { maintenanceLoop(); });
}

JobExecutor::~JobExecutor() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
    WorkReady.notify_all();
  }
  for (std::thread &T : Workers)
    T.join();
  if (Maintenance.joinable())
    Maintenance.join();
  Queue.setNotifier(nullptr);
}

void JobExecutor::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    WorkReady.wait(Lock, [&] { return Stopping || WorkHint; });
    WorkHint = false;
    Lock.unlock();
    // Drain everything claimable, then park. Like the old worker loop,
    // a stopping executor still finishes jobs already admitted.
    for (;;) {
      std::optional<JobRecord> Claimed = Queue.claim();
      if (!Claimed)
        break;
      runClaim(std::move(*Claimed));
    }
    Lock.lock();
    if (Stopping)
      return;
  }
}

void JobExecutor::maintenanceLoop() {
  (void)static_cast<bool>(Artifacts.heartbeat());
  const auto Period = std::chrono::duration<double>(
      std::max(0.01, Options.PollSeconds));
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    WorkReady.wait_for(Lock, Period, [&] { return Stopping; });
    if (Stopping)
      return;
    Lock.unlock();
    (void)static_cast<bool>(Artifacts.heartbeat());
    Queue.poll();
    Queue.renewLeases();
    // A peer cancels a running job by writing a marker; the owning
    // executor is the one that must flip the token.
    for (const std::string &Id : Queue.claimedRunning())
      if (Queue.cancelRequested(Id))
        cancelLocal(Id);
    Lock.lock();
  }
}

void JobExecutor::runClaim(JobRecord Record) {
  ExecState *X = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto &Slot = States[Record.Id];
    if (!Slot) {
      StateOrder.push_back(Record.Id);
      Slot = std::make_unique<ExecState>();
    } else {
      // Re-running a job this process reclaimed: fresh token and log.
      Slot = std::make_unique<ExecState>();
    }
    X = Slot.get();
  }
  // A cancel marker may have landed between submission and claim.
  if (Queue.cancelRequested(Record.Id))
    X->Token.cancel();

  Result<JobSpec> Spec =
      parseJobSpec(Record.Body, Store, Options.DatasetScale);
  if (!Spec) {
    // Local submissions were validated at submit time, so this is a
    // foreign journal whose model/spec no longer resolves here.
    finishJob(Record, *X, JobState::Failed, Spec.message());
    return;
  }
  runJob(Record, *Spec, *X);
}

void JobExecutor::finishJob(JobRecord &R, ExecState &X, JobState Terminal,
                            std::string Message) {
  // Persist the run artifacts before flipping the state, so a poller
  // that sees "done" can already read them.
  const std::string Dir = Artifacts.artifactsDir() + "/" + R.Id;
  Error TelemetryError = writeFileAtomic(
      Dir + "/telemetry.jsonl", telemetryJsonl(X.Log.snapshot()));
  // Artifacts are best-effort: a full disk must not fail the job.
  (void)static_cast<bool>(TelemetryError);
  JsonObject Summary;
  Summary.field("id", R.Id)
      .field("state", jobStateName(Terminal))
      .field("message", Message)
      .field("strategy", R.StrategyName)
      .field("criterion", R.CriterionName)
      .field("configs_evaluated", R.ConfigsEvaluated)
      .field("winner_index", R.WinnerIndex)
      .field("winner_accuracy", R.WinnerAccuracy, 6)
      .field("winner_size_fraction", R.WinnerSizeFraction, 6)
      .field("full_accuracy", R.FullAccuracy, 6)
      .field("model", R.ModelId);
  Error SummaryError =
      writeFileAtomic(Dir + "/result.json", Summary.str() + "\n");
  (void)static_cast<bool>(SummaryError);
  Queue.finish(R, Terminal, std::move(Message));
}

void JobExecutor::runJob(JobRecord &R, const JobSpec &S, ExecState &X) {
  // The dataset: the CUB200 analogue sized to the model's class count,
  // deterministic in the job seed.
  const Dataset Data = generateSynthetic([&] {
    SyntheticSpec DataSpec = standardDatasetSpecs(S.DatasetScale)[1];
    DataSpec.Classes = S.Spec.Layers.back().NumOutput;
    DataSpec.Height = S.Spec.InputHeight;
    DataSpec.Width = S.Spec.InputWidth;
    DataSpec.Seed = S.Seed * 2654435761u + 1;
    return DataSpec;
  }());

  PipelineOptions PipeOptions;
  PipeOptions.UseComposability = S.UseComposability;
  PipeOptions.UseIdentifier = S.UseIdentifier;
  PipeOptions.Schedule = S.Schedule;
  PipeOptions.Workers = S.PipelineWorkers;
  PipeOptions.DistillAlpha = S.DistillAlpha;
  PipeOptions.CacheDir = Artifacts.modelCacheDir();
  PipeOptions.BlockCacheConfig = Artifacts.blockCacheConfig();
  PipeOptions.CancelObjective =
      S.Schedule == PipelineSchedule::Overlap ? &S.Objective : nullptr;
  PipeOptions.Cancel = &X.Token;
  PipeOptions.Log = &X.Log;
  PipeOptions.KeepNetworks = true;
  PipeOptions.Criterion = S.Criterion;

  Rng Generator(S.Seed);

  // Every strategy, the fixed subspace included, runs through the
  // strategy driver.
  StrategyKnobs Knobs;
  Knobs.Rates = subspaceRateAlphabet(S.Subspace);
  Knobs.MaxRounds = S.MaxRounds;
  Knobs.AccuracyMargin = S.AccuracyMargin;
  Result<std::unique_ptr<ExplorationStrategy>> Strategy =
      makeStrategy(S.Strategy, S.Spec, S.Subspace, S.Objective, Knobs);
  if (!Strategy) {
    finishJob(R, X, JobState::Failed, Strategy.message());
    return;
  }
  Result<StrategyRunResult> Run =
      runStrategyExploration(S.Spec, Data, **Strategy, S.Meta, PipeOptions,
                             S.Objective, Generator);
  if (!Run) {
    if (X.Token.cancelled()) {
      finishJob(R, X, JobState::Cancelled, "cancelled while running");
      return;
    }
    finishJob(R, X, JobState::Failed, Run.message());
    return;
  }
  R.Rounds = Run->Rounds;
  R.Proposals = Run->Proposals;
  const PipelineResult &Outcome = Run->Run;
  for (const EvaluatedConfig &E : Outcome.Evaluations)
    if (!E.Cancelled)
      ++R.ConfigsEvaluated;
  // Results are stored in proposal order, which for the fixed subspace
  // is the exploration order: the index is also the position clients
  // see.
  R.FullAccuracy = Outcome.FullAccuracy;
  R.WinnerIndex = Run->WinnerIndex;

  if (R.WinnerIndex >= 0) {
    const EvaluatedConfig &Winner =
        Outcome.Evaluations[static_cast<size_t>(R.WinnerIndex)];
    R.WinnerSizeFraction = Winner.SizeFraction;
    R.WinnerAccuracy = Winner.FinalAccuracy;
    // Freeze the winner into a static inference plan once: the same
    // plan is persisted as plan.json next to result.json (the
    // compiler's decisions: step list, fusions, arena layout) and
    // served by the registry. The artifact is best-effort like every
    // other; a winner that does not freeze is not served.
    if (Winner.Network) {
      Result<ExecPlan> Frozen = ExecPlan::compile(
          Winner.Network->Network, Winner.Network->InputNode,
          Winner.Network->LogitsNode, S.Spec.InputChannels,
          S.Spec.InputHeight, S.Spec.InputWidth);
      if (Frozen) {
        auto Plan = std::make_shared<const ExecPlan>(Frozen.take());
        Error PlanError = writeFileAtomic(
            Artifacts.artifactsDir() + "/" + R.Id + "/plan.json",
            Plan->describeJson() + "\n");
        (void)static_cast<bool>(PlanError);
        X.Log.bump("serve.jobs.plan_frozen");
        if (Registry) {
          Error AddError = Registry->add(
              R.Id, std::move(Plan), S.Spec.Layers.back().NumOutput,
              "job " + R.Id + " winner (size " +
                  formatDouble(100.0 * Winner.SizeFraction, 1) + "%, acc " +
                  formatDouble(Winner.FinalAccuracy, 3) + ")");
          if (!AddError)
            R.ModelId = R.Id;
        }
      }
    }
    finishJob(R, X, JobState::Done,
              "winner at exploration position " +
                  std::to_string(R.WinnerIndex));
    return;
  }
  finishJob(R, X, JobState::Done, "no configuration met the objective");
}

void JobExecutor::cancelLocal(const std::string &Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = States.find(Id);
  if (It != States.end())
    It->second->Token.cancel();
}

std::map<std::string, int64_t>
JobExecutor::countersFor(const std::string &Id) const {
  const RunLog *StateLog = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = States.find(Id);
    if (It != States.end())
      StateLog = &It->second->Log;
  }
  return StateLog ? StateLog->counters()
                  : std::map<std::string, int64_t>();
}

std::map<std::string, int64_t> JobExecutor::aggregateCounters() const {
  std::vector<const RunLog *> Logs;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const std::string &Id : StateOrder)
      Logs.push_back(&States.at(Id)->Log);
  }
  std::map<std::string, int64_t> Out;
  for (const RunLog *StateLog : Logs)
    for (const auto &[Name, Value] : StateLog->counters())
      Out[Name] += Value;
  return Out;
}

void JobExecutor::waitSettled() {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (!Queue.allSettled()) {
    // Foreign jobs settle via poll-side refreshes that may not notify,
    // so the wait is bounded rather than purely event-driven.
    WorkReady.wait_for(Lock, std::chrono::milliseconds(50),
                       [&] { return Stopping; });
    if (Stopping)
      return;
  }
}
