//===- serve/JobManager.cpp ------------------------------------------------===//

#include "src/serve/JobManager.h"

#include "src/serve/ArtifactStore.h"
#include "src/serve/ModelStore.h"
#include "src/support/Json.h"

#include <algorithm>
#include <thread>

using namespace wootz;
using namespace wootz::serve;

namespace {

JobQueueOptions queueOptionsFor(const JobManagerOptions &Options) {
  JobQueueOptions Out;
  Out.Dir = Options.QueueDir;
  Out.MaxQueuedJobs = Options.MaxQueuedJobs;
  Out.LeaseSeconds = Options.LeaseSeconds;
  Out.Owner = Options.Owner;
  return Out;
}

} // namespace

JobManager::JobManager(JobManagerOptions Options, ModelRegistry *Registry,
                       RunLog *Log, const ModelStore *Store,
                       ArtifactStore *Artifacts)
    : Options(Options), Log(Log), Store(Store),
      Queue(queueOptionsFor(Options), Log) {
  // Worker validation mirrors the runtime convention: 0 means one
  // executor per hardware thread, negative is a configuration error
  // (reported via optionsError(); construction degrades to one worker
  // so the object stays usable in tests that probe the error).
  int Workers = Options.Workers;
  if (Workers < 0) {
    OptionsError = "JobManagerOptions::Workers must be non-negative "
                   "(0 means one worker per hardware thread)";
    Workers = 1;
  } else if (Workers == 0) {
    Workers =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }

  JobExecutorOptions ExecOptions;
  ExecOptions.Workers = Workers;
  ExecOptions.BlockCacheDir = Options.BlockCacheDir;
  ExecOptions.BlockCacheMaxBytes = Options.BlockCacheMaxBytes;
  ExecOptions.CacheDir = Options.CacheDir;
  ExecOptions.ArtifactDir = Options.ArtifactDir;
  ExecOptions.DatasetScale = Options.DatasetScale;
  ExecOptions.ExecuteJobs = Options.ExecuteJobs;
  ExecOptions.PollSeconds = Options.PollSeconds;
  Executor = std::make_unique<JobExecutor>(ExecOptions, Queue, Registry,
                                           Log, Store, Artifacts);
}

JobManager::~JobManager() = default;

SubmitOutcome
JobManager::submit(const std::map<std::string, std::string> &Body) {
  Result<JobSpec> Parsed = parseJobSpec(Body, Store, Options.DatasetScale);
  if (!Parsed) {
    SubmitOutcome Out;
    Out.Status = 400;
    Out.Error = Parsed.message();
    return Out;
  }
  if (Draining.load()) {
    SubmitOutcome Out;
    Out.Status = 503;
    Out.Error = "server is draining";
    return Out;
  }
  Result<std::string> Id = Queue.submit(
      Body, Parsed->Spec.Name, strategyKindName(Parsed->Strategy),
      importanceCriterionName(Parsed->Criterion), Parsed->Subspace.size());
  if (!Id) {
    SubmitOutcome Out;
    Out.Status = 429;
    Out.Error = Id.message();
    if (Log)
      Log->bump("serve.jobs.rejected");
    return Out;
  }
  SubmitOutcome Out;
  Out.Status = 202;
  Out.Id = Id.take();
  return Out;
}

std::string JobManager::jobJson(const JobRecord &R,
                                bool WithCounters) const {
  JsonObject Out;
  Out.field("id", R.Id)
      .field("state", jobStateName(R.State))
      .field("configs", R.SubspaceConfigs)
      .field("strategy", R.StrategyName)
      .field("criterion", R.CriterionName)
      .field("model_name", R.ModelName)
      .field("submitted_at", R.SubmitAt, 3);
  if (R.State != JobState::Queued)
    Out.field("started_at", R.StartAt, 3);
  if (R.terminal()) {
    Out.field("finished_at", R.EndAt, 3)
        .field("seconds", R.EndAt - R.StartAt, 3);
  }
  if (!R.Message.empty())
    Out.field("message", R.Message);
  if (R.State == JobState::Done) {
    Out.field("rounds", R.Rounds)
        .field("proposals", R.Proposals)
        .field("configs_evaluated", R.ConfigsEvaluated)
        .field("winner_index", R.WinnerIndex)
        .field("winner_accuracy", R.WinnerAccuracy, 6)
        .field("winner_size_fraction", R.WinnerSizeFraction, 6)
        .field("full_accuracy", R.FullAccuracy, 6)
        .field("model", R.ModelId);
  }
  if (WithCounters) {
    JsonObject Counters;
    for (const auto &[Name, Value] : Executor->countersFor(R.Id))
      Counters.field(Name, Value);
    Out.fieldRaw("counters", Counters.str());
  }
  return Out.str();
}

Result<std::string> JobManager::statusJson(const std::string &Id) const {
  Result<JobRecord> R = Queue.get(Id);
  if (!R)
    return Error::failure(R.message());
  return jobJson(*R, /*WithCounters=*/true) + "\n";
}

std::string JobManager::listJson() const {
  std::string Items;
  size_t Queued = 0, Running = 0;
  for (const JobRecord &R : Queue.snapshot()) {
    if (R.State == JobState::Queued)
      ++Queued;
    if (R.State == JobState::Running)
      ++Running;
    if (!Items.empty())
      Items += ",";
    Items += jobJson(R, /*WithCounters=*/false);
  }
  JsonObject Out;
  Out.fieldRaw("jobs", "[" + Items + "]")
      .field("queued", Queued)
      .field("running", Running);
  return Out.str() + "\n";
}

Result<std::string> JobManager::cancel(const std::string &Id) {
  // Flip the local token first (covers jobs this process is running),
  // then mark the queue — which flips still-queued jobs immediately and
  // leaves a durable marker for a remote owner.
  Executor->cancelLocal(Id);
  Result<JobState> After = Queue.requestCancel(Id);
  if (!After)
    return Error::failure(After.message());
  return std::string(jobStateName(*After));
}

void JobManager::drain() {
  Draining.store(true);
  Executor->waitSettled();
}

std::map<std::string, int64_t> JobManager::jobCounters() const {
  return Executor->aggregateCounters();
}

size_t JobManager::queuedCount() const { return Queue.queuedCount(); }

size_t JobManager::runningCount() const { return Queue.runningCount(); }

std::map<std::string, int64_t> JobManager::stateCounts() const {
  std::map<std::string, int64_t> Out;
  for (const auto &[Name, Count] : Queue.stateCounts())
    if (Count > 0)
      Out[Name] = Count;
  return Out;
}
