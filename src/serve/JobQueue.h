//===- serve/JobQueue.h - Durable, claimable job store ---------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The queueing half of the serve job path, split out of JobManager so a
/// job can run on any process that can see the store. A JobQueue is a
/// table of JobRecords — the validated submission body plus the job's
/// life-cycle state and result summary — backed by one directory
/// (normally ArtifactStore::jobsDir()). Every job lives on disk as an
/// atomic-rename JSONL *journal* ("<id>.jsonl": one spec record, then one
/// record per state transition), an *owner lease* ("<id>.lease", see
/// support/Lease.h) acquired by the claiming executor and renewed by
/// heartbeat, and an optional *cancel marker* ("<id>.cancel"). Any
/// process sharing the directory can submit, claim, observe, or cancel;
/// a claim is exclusive via the lease, and a job whose owner died
/// (journal says running, lease expired) is reclaimed back to queued by
/// whichever live process polls it first. A queue opened on a directory
/// that already holds journals — a restarted daemon — lists those jobs
/// and resumes or reclaims the unfinished ones.
///
/// The queue holds no execution state — no threads, tokens, or RunLogs;
/// that is serve/JobExecutor.h. It is the single source of truth for
/// "what jobs exist and where they are in their life cycle".
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SERVE_JOBQUEUE_H
#define WOOTZ_SERVE_JOBQUEUE_H

#include "src/runtime/RunLog.h"
#include "src/support/Error.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace wootz {
namespace serve {

/// Job life cycle. Queued -> Running -> {Done, Failed, Cancelled};
/// Queued -> Cancelled directly when cancelled before starting; a
/// Running job whose owner's lease expires goes back to Queued
/// (reclaim) and is re-run by a live process.
enum class JobState { Queued, Running, Done, Failed, Cancelled };

const char *jobStateName(JobState State);

/// Queue knobs.
struct JobQueueOptions {
  /// Journal directory (required: submit() refuses when empty).
  std::string Dir;
  /// Queued-job cap; submissions beyond it fail (the facade's 429).
  size_t MaxQueuedJobs = 8;
  /// Claim-lease TTL. An executor heartbeats at a fraction of this; a
  /// running job whose lease is this stale is presumed orphaned.
  double LeaseSeconds = 30.0;
  /// Claim identity; empty generates a per-instance unique name.
  std::string Owner;
};

/// One job as the queue sees it: submission body, life-cycle state, and
/// the result summary the HTTP surface renders.
struct JobRecord {
  std::string Id;
  /// The validated flat-JSON submission fields, verbatim. Execution
  /// re-parses them (parseJobSpec), which is what lets a *different
  /// process* run a job it never saw submitted.
  std::map<std::string, std::string> Body;

  JobState State = JobState::Queued;
  std::string Message;
  std::string Owner;  ///< Executor running it ("" while queued).
  bool Local = true;  ///< Submitted through this queue instance.
  int Reclaims = 0;   ///< Times the job was reclaimed from a dead owner.

  // Queue-clock seconds (JobQueue::now()), matching the old JSON shape.
  // Negative for events before this queue's clock started (jobs an
  // earlier process ran).
  double SubmitAt = 0.0, StartAt = 0.0, EndAt = 0.0;

  // Wall-clock stamps recovered from the journal (0 = not recorded).
  // Imports map them into the local queue clock so an observer daemon
  // reports a peer-run job's real timings, not its own import times.
  int64_t SubmittedUnixMs = 0, StartedUnixMs = 0, FinishedUnixMs = 0;

  // Listing surface, known at submit time.
  std::string StrategyName = "fixed";
  std::string CriterionName = "l1";
  std::string ModelName;
  size_t SubspaceConfigs = 0;

  // Result summary, set by the finishing executor.
  int ConfigsEvaluated = 0;
  int Rounds = 0;
  int Proposals = 0;
  int WinnerIndex = -1;
  double WinnerAccuracy = 0.0;
  double WinnerSizeFraction = 0.0;
  double FullAccuracy = 0.0;
  std::string ModelId;

  bool terminal() const {
    return State == JobState::Done || State == JobState::Failed ||
           State == JobState::Cancelled;
  }
};

/// The job table. Thread-safe and multi-process-safe (atomic journal
/// writes, lease-gated claims).
class JobQueue {
public:
  explicit JobQueue(JobQueueOptions Options, RunLog *Log = nullptr);

  JobQueue(const JobQueue &) = delete;
  JobQueue &operator=(const JobQueue &) = delete;

  const std::string &owner() const { return Options.Owner; }
  const std::string &dir() const { return Options.Dir; }
  double leaseMillis() const { return Options.LeaseSeconds * 1e3; }

  /// Seconds on the queue's clock (what the JSON timestamps use).
  double now() const { return Clock.now(); }

  /// Called (outside the queue lock) whenever work may have become
  /// claimable — the executor parks its workers on this.
  void setNotifier(std::function<void()> Fn);

  /// Admits one validated job under the id "<owner>-job-<N>", skipping
  /// ids a journal in the directory already uses. Fails when the queued
  /// count is at the cap ("job queue is full ...") or the queue has no
  /// directory. \p ModelName /
  /// \p StrategyName / \p CriterionName / \p SubspaceConfigs fill the
  /// listing surface.
  Result<std::string> submit(std::map<std::string, std::string> Body,
                             std::string ModelName,
                             std::string StrategyName,
                             std::string CriterionName,
                             size_t SubspaceConfigs);

  /// Claims the oldest claimable job: flips it Queued -> Running under
  /// this queue's owner (acquiring the on-disk lease)
  /// and returns a copy for execution. nullopt when nothing claimable.
  std::optional<JobRecord> claim();

  /// Ids of the running jobs this queue instance claimed.
  std::vector<std::string> claimedRunning() const;

  /// Renews the lease of every claimedRunning() job (heartbeat).
  void renewLeases();

  /// Terminal transition for a job this owner ran. \p R carries the
  /// result summary fields; the journal gets the terminal record and
  /// the lease is released.
  void finish(const JobRecord &R, JobState Terminal, std::string Message);

  /// Cancels \p Id: a still-queued job terminates immediately; a
  /// running one gets a cancel marker (its executor observes it via
  /// cancelRequested() — in-process executors are told directly by the
  /// facade). Returns the post-request state.
  Result<JobState> requestCancel(const std::string &Id);

  /// True when a cancel marker exists for \p Id.
  bool cancelRequested(const std::string &Id) const;

  /// Maintenance (the executor's poll thread): imports
  /// journals other processes wrote, refreshes the state of jobs other
  /// queues are running, applies cancel markers to queued jobs, and
  /// reclaims running jobs whose lease expired — including ones an
  /// earlier process with this queue's owner name left behind. Returns
  /// true when new work became claimable.
  bool poll();

  // Introspection (copies, submission-/discovery-ordered).
  std::vector<JobRecord> snapshot() const;
  Result<JobRecord> get(const std::string &Id) const;
  size_t queuedCount() const;
  size_t runningCount() const;
  std::map<std::string, int64_t> stateCounts() const;
  /// True when no job is queued or running (the drain condition).
  bool allSettled() const;

private:
  struct Entry {
    JobRecord Record;
    std::vector<std::string> Journal; ///< Rendered JSONL lines.
    /// Claimed by this queue instance (not merely by its owner name: a
    /// restarted daemon with a stable name imports its dead earlier
    /// life's running jobs, which it must reclaim, not heartbeat).
    bool ClaimedHere = false;
  };

  std::string journalPath(const std::string &Id) const;
  std::string leasePath(const std::string &Id) const;
  std::string cancelPath(const std::string &Id) const;
  /// Appends \p Line to the entry's journal and atomically rewrites the
  /// file. Best-effort: on a full disk the entry lives on in memory
  /// only, never a crash.
  void appendJournalLocked(Entry &E, const std::string &Line);
  std::string specLineLocked(const Entry &E) const;
  std::string stateLineLocked(const Entry &E) const;
  /// Parses a journal's lines into an Entry (foreign import / refresh).
  static Result<JobRecord> parseJournal(const std::string &Id,
                                        const std::string &Text);
  size_t queuedCountLocked() const;
  void notify();

  JobQueueOptions Options;
  RunLog *Log = nullptr;
  RunLog Clock; ///< Timestamps only (now()).

  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Entry>> Jobs;
  std::vector<std::string> Order; ///< Submission/discovery order.
  uint64_t NextId = 1;
  std::function<void()> Notifier;
};

} // namespace serve
} // namespace wootz

#endif // WOOTZ_SERVE_JOBQUEUE_H
