//===- serve/JobExecutor.h - Claims and runs queued jobs -------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution half of the serve job path: worker threads that claim
/// jobs from a JobQueue, re-parse the submission body into a JobSpec,
/// and run runStrategyExploration (every strategy, the fixed subspace
/// included) with a per-job RunLog (live counters for GET
/// /v1/jobs/<id>) and CancelToken. Every job reads and writes the
/// artifact store's shared tiers (block cache, model cache, per-job
/// artifacts). The executor also owns the maintenance thread: it polls
/// the queue for foreign journals, heartbeats claim leases and the
/// artifact store's process registration, and propagates cancel markers
/// written by peer processes into local cancel tokens.
///
/// Splitting parse (parseJobSpec) out of JobManager::submit is what
/// makes a job executable on a process that never saw its submission:
/// validation happens twice — once at submit for the 400 surface, once
/// at claim for execution — from the same code, so the two can never
/// disagree.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SERVE_JOBEXECUTOR_H
#define WOOTZ_SERVE_JOBEXECUTOR_H

#include "src/explore/Pipeline.h"
#include "src/explore/strategy/Strategy.h"
#include "src/serve/Batcher.h"
#include "src/serve/JobQueue.h"

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wootz {
namespace serve {

class ArtifactStore;
class ModelStore;

/// A fully parsed, validated job request — the four Figure-2 inputs
/// plus the execution knobs. Produced by parseJobSpec from the flat
/// submission body; consumed by the executor.
struct JobSpec {
  ModelSpec Spec;
  std::vector<PruneConfig> Subspace;
  TrainMeta Meta;
  PruningObjective Objective;
  bool UseComposability = true;
  bool UseIdentifier = true;
  PipelineSchedule Schedule = PipelineSchedule::Overlap;
  int PipelineWorkers = 2;
  float DistillAlpha = 0.0f;
  uint64_t Seed = 7;
  double DatasetScale = 0.25;
  StrategyKind Strategy = StrategyKind::Fixed;
  ImportanceCriterion Criterion = ImportanceCriterion::L1Norm;
  int MaxRounds = 24;
  double AccuracyMargin = 0.02;
};

/// Parses and validates one job submission body. The error message is
/// exactly what the HTTP surface answers as the 400 body, and the same
/// call validates a claim on a foreign process — submit-side and
/// claim-side validation cannot drift apart. \p Store (optional)
/// resolves "model" values naming uploaded models; \p DefaultScale is
/// the daemon's dataset_scale default.
Result<JobSpec> parseJobSpec(const std::map<std::string, std::string> &Body,
                             const ModelStore *Store, double DefaultScale);

/// Execution-side knobs (the facade fills them from JobManagerOptions).
struct JobExecutorOptions {
  /// Worker threads; must already be resolved to a positive count.
  int Workers = 1;
  /// Default dataset_scale for claim-side re-parsing.
  double DatasetScale = 0.25;
  /// When false, this executor never claims jobs — the daemon is
  /// submit/observe-only and relies on peers to execute (used by tests
  /// to force cross-process execution, and by dedicated frontends).
  bool ExecuteJobs = true;
  /// Maintenance period: queue poll, lease renewal, registry
  /// heartbeat, cancel-marker propagation.
  double PollSeconds = 0.25;
};

/// Claims jobs from a JobQueue and runs them. Owns the worker threads
/// and the per-job execution state (CancelToken, RunLog); the queue
/// owns the job table.
class JobExecutor {
public:
  /// \p Queue and \p Artifacts outlive the executor; \p Artifacts
  /// holds the caches and per-job artifacts and gets its registration
  /// heartbeat from the maintenance thread. \p Registry (optional)
  /// receives winning networks; \p Log (optional) gets serve.jobs.*
  /// counters; \p Store (optional) resolves uploaded-model references
  /// at claim.
  JobExecutor(JobExecutorOptions Options, JobQueue &Queue,
              ArtifactStore &Artifacts, ModelRegistry *Registry,
              RunLog *Log, const ModelStore *Store = nullptr);
  ~JobExecutor();

  JobExecutor(const JobExecutor &) = delete;
  JobExecutor &operator=(const JobExecutor &) = delete;

  /// Cancels the token of a job this executor is running (or ran).
  /// No-op for unknown ids — the caller also marks the queue.
  void cancelLocal(const std::string &Id);

  /// Live counters of a locally executed job; empty for foreign jobs.
  std::map<std::string, int64_t> countersFor(const std::string &Id) const;

  /// Aggregated counters over every locally executed job's RunLog
  /// (cache.*, tasks_*): the /metrics feed.
  std::map<std::string, int64_t> aggregateCounters() const;

  /// Blocks until the queue has no queued or running job (drain).
  void waitSettled();

private:
  /// Per-claim execution state; kept after the job finishes so status
  /// and metrics readers can keep sampling its counters.
  struct ExecState {
    CancelToken Token;
    RunLog Log;
  };

  void workerLoop();
  void maintenanceLoop();
  void runClaim(JobRecord Record);
  void runJob(JobRecord &R, const JobSpec &S, ExecState &X);
  void finishJob(JobRecord &R, ExecState &X, JobState Terminal,
                 std::string Message);

  JobExecutorOptions Options;
  JobQueue &Queue;
  ArtifactStore &Artifacts;
  ModelRegistry *Registry = nullptr;
  RunLog *Log = nullptr;
  const ModelStore *Store = nullptr;

  mutable std::mutex Mutex;
  std::condition_variable WorkReady;
  std::map<std::string, std::unique_ptr<ExecState>> States;
  std::vector<std::string> StateOrder; ///< Claim order, for aggregation.
  bool WorkHint = false;
  bool Stopping = false;
  std::vector<std::thread> Workers;
  std::thread Maintenance;
};

} // namespace serve
} // namespace wootz

#endif // WOOTZ_SERVE_JOBEXECUTOR_H
