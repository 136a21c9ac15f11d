//===- serve/JobManager.h - Prune-exploration job facade -------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job half of the serve daemon, as the HTTP layer sees it. The
/// actual machinery lives one layer down — serve/JobQueue.h holds the
/// durable, multi-process job table, serve/JobExecutor.h the worker
/// threads that claim and run jobs — and JobManager is the thin facade
/// that keeps the single-daemon API: submit with 202/400/429/503
/// semantics, status/list JSON with live counters, cancel, drain, and
/// the /metrics gauges.
///
/// Everything lives under one ArtifactStore root: jobs are journaled to
/// its jobs/ directory under "<process>-job-<N>" ids, and any daemon
/// given the same root can execute them — a job submitted here may
/// finish on another process, and vice versa, and a daemon restarted on
/// the root lists its earlier jobs and resumes the unfinished ones.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SERVE_JOBMANAGER_H
#define WOOTZ_SERVE_JOBMANAGER_H

#include "src/serve/JobExecutor.h"
#include "src/serve/JobQueue.h"

#include <atomic>
#include <map>
#include <memory>
#include <string>

namespace wootz {
namespace serve {

class ArtifactStore;
class ModelStore;

/// Job-side knobs.
struct JobManagerOptions {
  /// Job executor threads — how many explorations run concurrently.
  /// 0 means one per hardware thread; negative is rejected (the daemon
  /// refuses to start, see JobManager::optionsError()).
  int Workers = 1;
  /// Queued-job cap; submissions beyond it are answered 429.
  size_t MaxQueuedJobs = 8;
  /// Per-class example multiplier of the synthetic dataset jobs train on.
  double DatasetScale = 0.25;
  /// Claim-lease TTL.
  double LeaseSeconds = 30.0;
  /// Poll/heartbeat period.
  double PollSeconds = 0.25;
  /// When false this daemon only submits and observes; peers sharing
  /// the queue directory execute.
  bool ExecuteJobs = true;
};

/// How a submission attempt resolved, with the HTTP status to answer.
struct SubmitOutcome {
  int Status = 202;  ///< 202 accepted / 400 bad input / 429 / 503.
  std::string Id;    ///< Set on success.
  std::string Error; ///< Set on failure.
};

/// Facade over JobQueue + JobExecutor preserving the original API.
class JobManager {
public:
  /// \p Artifacts (which outlives the manager; on an empty root,
  /// submissions are refused with 503) holds the job journals, caches and per-job artifacts,
  /// and names this process: its process name owns the claims.
  /// \p Registry (optional) receives winning networks; \p Log (optional)
  /// gets `serve.jobs.*` counters; \p Store (optional) resolves "model"
  /// values that name uploaded models.
  JobManager(JobManagerOptions Options, ArtifactStore &Artifacts,
             ModelRegistry *Registry, RunLog *Log,
             const ModelStore *Store = nullptr);
  ~JobManager();

  JobManager(const JobManager &) = delete;
  JobManager &operator=(const JobManager &) = delete;

  /// Non-empty when the options were invalid (negative Workers). The
  /// manager still constructs — degraded to one worker — but the server
  /// refuses to start, mirroring runtime worker validation.
  const std::string &optionsError() const { return OptionsError; }

  /// Parses and enqueues one job from a flat-JSON request body. Required
  /// fields: "model" (Prototxt text, or the id of an uploaded model —
  /// checked first), "subspace", "meta", "objective" — each
  /// the corresponding Figure-2 text format. Optional: "composability"
  /// (bool, default true), "identifier" (bool, default true), "schedule"
  /// ("overlap"|"evalonly", default overlap), "workers" (int, default 2),
  /// "seed" (int), "dataset_scale" (float), "distill_alpha" (float),
  /// "strategy" ("fixed"|"greedy"|"adaptive", default fixed; the
  /// on-the-fly strategies take their rate alphabet from the subspace),
  /// "criterion" ("l1"|"l2"|"taylor"|"taylor_expansion"|"apoz", default
  /// l1), "max_rounds" (int in [1, 256], default 24), "accuracy_margin"
  /// (float in [0, 0.5], default 0.02). Unknown strategy or criterion
  /// names are answered 400 with the valid names listed — never a
  /// silent default.
  SubmitOutcome submit(const std::map<std::string, std::string> &Body);

  /// Renders one job as a JSON object (live counters for running jobs);
  /// error when the id is unknown.
  Result<std::string> statusJson(const std::string &Id) const;

  /// Renders `{"jobs":[...]}` with per-job summaries.
  std::string listJson() const;

  /// Cancels a job: queued jobs terminate immediately, running jobs at
  /// their next task boundary (on whichever process runs them). Returns
  /// the post-cancel state name, or an error for unknown ids.
  /// Cancelling a finished job is a no-op that reports its terminal
  /// state.
  Result<std::string> cancel(const std::string &Id);

  /// Stops accepting new jobs and blocks until every known job has
  /// reached a terminal state. Does not stop the worker threads (the
  /// destructor does); callable once or many times.
  void drain();

  /// Aggregated live counters over every job's RunLog (cache.*, tasks_*):
  /// the /metrics feed.
  std::map<std::string, int64_t> jobCounters() const;

  /// Gauges for /metrics.
  size_t queuedCount() const;
  size_t runningCount() const;
  std::map<std::string, int64_t> stateCounts() const;

  // Direct access for tests.
  JobQueue &queue() { return Queue; }
  JobExecutor &executor() { return *Executor; }

private:
  std::string jobJson(const JobRecord &R, bool WithCounters) const;

  JobManagerOptions Options;
  ModelRegistry *Registry = nullptr;
  RunLog *Log = nullptr;
  const ModelStore *Store = nullptr;
  std::string OptionsError;
  // Executor is declared after (so destroyed before) the queue it
  // consumes.
  JobQueue Queue;
  std::unique_ptr<JobExecutor> Executor;
  std::atomic<bool> Draining{false};
};

} // namespace serve
} // namespace wootz

#endif // WOOTZ_SERVE_JOBMANAGER_H
