//===- serve/JobQueue.cpp --------------------------------------------------===//

#include "src/serve/JobQueue.h"

#include "src/support/File.h"
#include "src/support/Json.h"
#include "src/support/Lease.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <filesystem>

#include <unistd.h>

using namespace wootz;
using namespace wootz::serve;

namespace fs = std::filesystem;

const char *wootz::serve::jobStateName(JobState State) {
  switch (State) {
  case JobState::Queued:
    return "queued";
  case JobState::Running:
    return "running";
  case JobState::Done:
    return "done";
  case JobState::Failed:
    return "failed";
  case JobState::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

namespace {

Result<JobState> parseJobState(const std::string &Name) {
  for (JobState S : {JobState::Queued, JobState::Running, JobState::Done,
                     JobState::Failed, JobState::Cancelled})
    if (Name == jobStateName(S))
      return S;
  return Error::failure("unknown job state '" + Name + "'");
}

std::string lookup(const std::map<std::string, std::string> &Fields,
                   const char *Key) {
  auto It = Fields.find(Key);
  return It == Fields.end() ? std::string() : It->second;
}

int64_t lookupInt(const std::map<std::string, std::string> &Fields,
                  const char *Key, int64_t Default = 0) {
  auto It = Fields.find(Key);
  if (It == Fields.end())
    return Default;
  Result<long long> Parsed = parseInteger(It->second);
  return Parsed ? static_cast<int64_t>(*Parsed) : Default;
}

double lookupDouble(const std::map<std::string, std::string> &Fields,
                    const char *Key, double Default = 0.0) {
  auto It = Fields.find(Key);
  if (It == Fields.end())
    return Default;
  Result<double> Parsed = parseDouble(It->second);
  return Parsed ? *Parsed : Default;
}

} // namespace

JobQueue::JobQueue(JobQueueOptions Options, RunLog *Log)
    : Options(std::move(Options)), Log(Log) {
  if (this->Options.Owner.empty()) {
    // Unique per queue *instance*: tests and benches run several
    // daemons inside one OS process.
    static std::atomic<uint64_t> Serial{0};
    this->Options.Owner = "exec-" + std::to_string(::getpid()) + "-" +
                          std::to_string(Serial.fetch_add(1));
  }
  std::error_code Ignored;
  fs::create_directories(this->Options.Dir, Ignored);
  poll(); // Pick up journals left by earlier or concurrent processes.
}

void JobQueue::setNotifier(std::function<void()> Fn) {
  std::lock_guard<std::mutex> Guard(Mutex);
  Notifier = std::move(Fn);
}

void JobQueue::notify() {
  std::function<void()> Fn;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Fn = Notifier;
  }
  if (Fn)
    Fn();
}

std::string JobQueue::journalPath(const std::string &Id) const {
  return Options.Dir + "/" + Id + ".jsonl";
}

std::string JobQueue::leasePath(const std::string &Id) const {
  return Options.Dir + "/" + Id + ".lease";
}

std::string JobQueue::cancelPath(const std::string &Id) const {
  return Options.Dir + "/" + Id + ".cancel";
}

std::string JobQueue::specLineLocked(const Entry &E) const {
  JsonObject Spec;
  Spec.field("type", "spec")
      .field("id", E.Record.Id)
      .field("model_name", E.Record.ModelName)
      .field("strategy", E.Record.StrategyName)
      .field("criterion", E.Record.CriterionName)
      .field("configs", E.Record.SubspaceConfigs)
      .field("submitted_unix_ms", unixMillisNow());
  // The submission body rides along with a "b." prefix per key, so a
  // foreign process can re-validate and execute the exact request.
  for (const auto &KV : E.Record.Body)
    Spec.field("b." + KV.first, KV.second);
  return Spec.str();
}

std::string JobQueue::stateLineLocked(const Entry &E) const {
  JsonObject Line;
  Line.field("type", "state")
      .field("state", jobStateName(E.Record.State))
      .field("owner", E.Record.Owner)
      .field("at_unix_ms", unixMillisNow());
  if (!E.Record.Message.empty())
    Line.field("message", E.Record.Message);
  if (E.Record.terminal()) {
    Line.field("configs_evaluated", E.Record.ConfigsEvaluated)
        .field("rounds", E.Record.Rounds)
        .field("proposals", E.Record.Proposals)
        .field("winner_index", E.Record.WinnerIndex)
        .field("winner_accuracy", E.Record.WinnerAccuracy, 6)
        .field("winner_size_fraction", E.Record.WinnerSizeFraction, 6)
        .field("full_accuracy", E.Record.FullAccuracy, 6);
    if (!E.Record.ModelId.empty())
      Line.field("model_id", E.Record.ModelId);
  }
  return Line.str();
}

void JobQueue::appendJournalLocked(Entry &E, const std::string &Line) {
  E.Journal.push_back(Line);
  std::string Text;
  for (const std::string &L : E.Journal)
    Text += L + "\n";
  // Whole-file atomic rewrite: a concurrent reader sees a complete
  // journal at some prefix of history, never a torn line. Best-effort —
  // on an unwritable disk the job lives on in this process only.
  if (writeFileAtomic(journalPath(E.Record.Id), Text) && Log)
    Log->bump("serve.jobs.journal_write_failed");
}

Result<JobRecord> JobQueue::parseJournal(const std::string &Id,
                                         const std::string &Text) {
  JobRecord Out;
  Out.Id = Id;
  Out.Local = false;
  bool SawSpec = false;
  for (const std::string &Line : splitLines(Text)) {
    std::string_view Trimmed = trim(Line);
    if (Trimmed.empty())
      continue;
    Result<std::map<std::string, std::string>> Fields =
        parseFlatJsonObject(Trimmed);
    if (!Fields)
      return Error::failure("journal '" + Id + "': " + Fields.message());
    const std::string Type = lookup(*Fields, "type");
    if (Type == "spec") {
      SawSpec = true;
      Out.SubmittedUnixMs = lookupInt(*Fields, "submitted_unix_ms");
      Out.ModelName = lookup(*Fields, "model_name");
      Out.StrategyName = lookup(*Fields, "strategy");
      Out.CriterionName = lookup(*Fields, "criterion");
      Out.SubspaceConfigs =
          static_cast<size_t>(lookupInt(*Fields, "configs"));
      for (const auto &KV : *Fields)
        if (startsWith(KV.first, "b."))
          Out.Body[KV.first.substr(2)] = KV.second;
    } else if (Type == "state") {
      Result<JobState> State = parseJobState(lookup(*Fields, "state"));
      if (!State)
        return Error::failure("journal '" + Id + "': " + State.message());
      Out.State = *State;
      Out.Owner = lookup(*Fields, "owner");
      Out.Message = lookup(*Fields, "message");
      if (Out.State == JobState::Running)
        Out.StartedUnixMs = lookupInt(*Fields, "at_unix_ms");
      if (Out.terminal()) {
        Out.FinishedUnixMs = lookupInt(*Fields, "at_unix_ms");
        Out.ConfigsEvaluated =
            static_cast<int>(lookupInt(*Fields, "configs_evaluated"));
        Out.Rounds = static_cast<int>(lookupInt(*Fields, "rounds"));
        Out.Proposals = static_cast<int>(lookupInt(*Fields, "proposals"));
        Out.WinnerIndex =
            static_cast<int>(lookupInt(*Fields, "winner_index", -1));
        Out.WinnerAccuracy = lookupDouble(*Fields, "winner_accuracy");
        Out.WinnerSizeFraction =
            lookupDouble(*Fields, "winner_size_fraction");
        Out.FullAccuracy = lookupDouble(*Fields, "full_accuracy");
        Out.ModelId = lookup(*Fields, "model_id");
      }
    } else {
      return Error::failure("journal '" + Id +
                            "': unknown record type '" + Type + "'");
    }
  }
  if (!SawSpec)
    return Error::failure("journal '" + Id + "': no spec record");
  return Out;
}

Result<std::string> JobQueue::submit(
    std::map<std::string, std::string> Body, std::string ModelName,
    std::string StrategyName, std::string CriterionName,
    size_t SubspaceConfigs) {
  if (Options.Dir.empty())
    return Error::failure("the job queue has no directory");
  std::unique_lock<std::mutex> Guard(Mutex);
  if (queuedCountLocked() >= Options.MaxQueuedJobs)
    return Error::failure("job queue is full (" +
                          std::to_string(Options.MaxQueuedJobs) +
                          " queued)");
  // The owner prefix keeps ids from concurrent submitters apart; the
  // skip keeps a restarted owner (a stable --shard name) from reusing
  // the ids of its earlier life, whose journals are still here.
  std::string Id;
  std::error_code Ignored;
  do
    Id = Options.Owner + "-job-" + std::to_string(NextId++);
  while (Jobs.count(Id) || fs::exists(journalPath(Id), Ignored));
  auto E = std::make_unique<Entry>();
  E->Record.Id = Id;
  E->Record.Body = std::move(Body);
  E->Record.ModelName = std::move(ModelName);
  E->Record.StrategyName = std::move(StrategyName);
  E->Record.CriterionName = std::move(CriterionName);
  E->Record.SubspaceConfigs = SubspaceConfigs;
  E->Record.SubmitAt = Clock.now();
  appendJournalLocked(*E, specLineLocked(*E));
  appendJournalLocked(*E, stateLineLocked(*E));
  Jobs[Id] = std::move(E);
  Order.push_back(Id);
  if (Log)
    Log->bump("serve.jobs.submitted");
  Guard.unlock();
  notify();
  return Id;
}

std::optional<JobRecord> JobQueue::claim() {
  std::lock_guard<std::mutex> Guard(Mutex);
  for (const std::string &Id : Order) {
    Entry *E = Jobs[Id].get();
    if (E->Record.State != JobState::Queued)
      continue;
    Result<bool> Acquired = tryAcquireLease(
        leasePath(Id), Options.Owner,
        static_cast<int64_t>(Options.LeaseSeconds * 1e3));
    if (!Acquired || !*Acquired)
      continue; // Another process claimed it; poll() will catch up.
    E->Record.State = JobState::Running;
    E->Record.Owner = Options.Owner;
    E->Record.StartAt = Clock.now();
    E->ClaimedHere = true;
    appendJournalLocked(*E, stateLineLocked(*E));
    if (Log)
      Log->bump("serve.jobs.claimed");
    return E->Record;
  }
  return std::nullopt;
}

std::vector<std::string> JobQueue::claimedRunning() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  std::vector<std::string> Mine;
  for (const auto &KV : Jobs)
    if (KV.second->Record.State == JobState::Running &&
        KV.second->ClaimedHere)
      Mine.push_back(KV.first);
  return Mine;
}

void JobQueue::renewLeases() {
  for (const std::string &Id : claimedRunning())
    if (renewLease(leasePath(Id), Options.Owner,
                   static_cast<int64_t>(Options.LeaseSeconds * 1e3)) &&
        Log)
      Log->bump("serve.jobs.lease_lost");
}

void JobQueue::finish(const JobRecord &R, JobState Terminal,
                      std::string Message) {
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    auto It = Jobs.find(R.Id);
    if (It == Jobs.end())
      return;
    Entry &E = *It->second;
    if (E.Record.terminal())
      return; // Lost a cancel/reclaim race; the first writer wins.
    // Copy the executor's result summary over, keep queue bookkeeping.
    const double SubmitAt = E.Record.SubmitAt;
    const double StartAt = E.Record.StartAt;
    const bool Local = E.Record.Local;
    const int Reclaims = E.Record.Reclaims;
    E.Record = R;
    E.Record.SubmitAt = SubmitAt;
    E.Record.StartAt = StartAt;
    E.Record.Local = Local;
    E.Record.Reclaims = Reclaims;
    E.Record.State = Terminal;
    E.Record.Message = std::move(Message);
    E.Record.EndAt = Clock.now();
    E.ClaimedHere = false;
    appendJournalLocked(E, stateLineLocked(E));
  }
  releaseLease(leasePath(R.Id), Options.Owner);
  std::error_code Ignored;
  fs::remove(cancelPath(R.Id), Ignored);
  if (Log)
    Log->bump(Terminal == JobState::Done
                  ? "serve.jobs.completed"
                  : (Terminal == JobState::Cancelled
                         ? "serve.jobs.cancelled"
                         : "serve.jobs.failed"));
  notify();
}

Result<JobState> JobQueue::requestCancel(const std::string &Id) {
  bool Marker = false;
  JobState After;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    auto It = Jobs.find(Id);
    if (It == Jobs.end())
      return Error::failure("no such job '" + Id + "'");
    Entry &E = *It->second;
    if (E.Record.State == JobState::Queued) {
      E.Record.State = JobState::Cancelled;
      E.Record.Message = "cancelled while queued";
      E.Record.EndAt = Clock.now();
      appendJournalLocked(E, stateLineLocked(E));
      if (Log)
        Log->bump("serve.jobs.cancelled");
    } else if (E.Record.State == JobState::Running) {
      // The owning executor observes the marker (or, in-process, is
      // told directly by the facade) and stops at the next check.
      Marker = true;
    }
    After = E.Record.State;
  }
  if (Marker)
    writeFileAtomic(cancelPath(Id), "cancel\n");
  return After;
}

bool JobQueue::cancelRequested(const std::string &Id) const {
  std::error_code Ignored;
  return fs::exists(cancelPath(Id), Ignored);
}

bool JobQueue::poll() {
  bool Claimable = false;
  std::error_code FsError;
  std::vector<std::string> Ids;
  for (const auto &DirEntry :
       fs::directory_iterator(Options.Dir, FsError)) {
    if (!DirEntry.is_regular_file())
      continue;
    if (DirEntry.path().extension() != ".jsonl")
      continue;
    Ids.push_back(DirEntry.path().stem().string());
  }
  std::sort(Ids.begin(), Ids.end());

  // Journal records carry wall-clock stamps; project them onto this
  // queue's clock from one anchor, so an observer reports the job's
  // real timings (a peer-run job that finished in 0.1s must not read as
  // "seconds": <importer uptime>, nor an earlier process's job as 0).
  // Stamps ahead of this process's clock (skew) read as now.
  const double AnchorNow = Clock.now();
  const int64_t AnchorUnixMs = unixMillisNow();
  const auto ToLocal = [&](int64_t UnixMs) {
    return AnchorNow -
           std::max<double>(0.0, static_cast<double>(AnchorUnixMs - UnixMs) /
                                     1e3);
  };

  std::unique_lock<std::mutex> Guard(Mutex);
  for (const std::string &Id : Ids) {
    auto It = Jobs.find(Id);
    const bool Known = It != Jobs.end();
    if (Known) {
      Entry &E = *It->second;
      // Nothing to refresh for jobs we run or that already finished.
      if (E.Record.terminal() || E.ClaimedHere)
        continue;
    }
    Result<std::string> Text = readFile(journalPath(Id));
    if (!Text)
      continue;
    Result<JobRecord> Parsed = parseJournal(Id, *Text);
    if (!Parsed) {
      if (Log)
        Log->bump("serve.jobs.journal_corrupt");
      continue;
    }
    // Missing stamps fall back to import time.
    if (!Known) {
      auto E = std::make_unique<Entry>();
      E->Record = *Parsed;
      E->Record.SubmitAt = Parsed->SubmittedUnixMs
                               ? ToLocal(Parsed->SubmittedUnixMs)
                               : Clock.now();
      if (Parsed->StartedUnixMs)
        E->Record.StartAt = ToLocal(Parsed->StartedUnixMs);
      else if (Parsed->State == JobState::Running)
        E->Record.StartAt = Clock.now();
      if (Parsed->terminal())
        E->Record.EndAt = Parsed->FinishedUnixMs
                              ? ToLocal(Parsed->FinishedUnixMs)
                              : Clock.now();
      for (const std::string &Line : splitLines(*Text))
        if (!trim(Line).empty())
          E->Journal.push_back(std::string(trim(Line)));
      Jobs[Id] = std::move(E);
      Order.push_back(Id);
      It = Jobs.find(Id);
      if (Log)
        Log->bump("serve.jobs.imported");
    } else {
      Entry &E = *It->second;
      const JobState Before = E.Record.State;
      const std::vector<std::string> Lines = splitLines(*Text);
      E.Journal.clear();
      for (const std::string &Line : Lines)
        if (!trim(Line).empty())
          E.Journal.push_back(std::string(trim(Line)));
      const double SubmitAt = E.Record.SubmitAt;
      const double StartAt = E.Record.StartAt;
      const bool Local = E.Record.Local;
      const int Reclaims = E.Record.Reclaims;
      E.Record = *Parsed;
      E.Record.Local = Local;
      E.Record.Reclaims = Reclaims;
      E.Record.SubmitAt = SubmitAt;
      E.Record.StartAt = StartAt;
      if (Before != JobState::Running &&
          E.Record.State == JobState::Running)
        E.Record.StartAt = Parsed->StartedUnixMs
                               ? ToLocal(Parsed->StartedUnixMs)
                               : Clock.now();
      if (E.Record.terminal()) {
        // A job can go Queued -> Running -> terminal entirely between
        // two polls; recover the start it never observed live.
        if (Before == JobState::Queued && Parsed->StartedUnixMs)
          E.Record.StartAt = ToLocal(Parsed->StartedUnixMs);
        E.Record.EndAt = Parsed->FinishedUnixMs
                             ? ToLocal(Parsed->FinishedUnixMs)
                             : Clock.now();
      }
    }

    Entry &E = *It->second;
    if (E.Record.State == JobState::Queued) {
      // A queued job may have a pending cancel marker from any process.
      std::error_code Ignored;
      if (fs::exists(cancelPath(Id), Ignored)) {
        E.Record.State = JobState::Cancelled;
        E.Record.Message = "cancelled while queued";
        E.Record.EndAt = Clock.now();
        appendJournalLocked(E, stateLineLocked(E));
        fs::remove(cancelPath(Id), Ignored);
        if (Log)
          Log->bump("serve.jobs.cancelled");
      } else {
        Claimable = true;
      }
      continue;
    }
    if (E.Record.State != JobState::Running || E.ClaimedHere)
      continue;
    // Running under another queue — a peer, or an earlier process with
    // this owner name: reclaim when its lease has expired — the owner
    // stopped heartbeating a full TTL ago, so it is dead.
    Result<LeaseInfo> Held = readLease(leasePath(Id));
    if (Held && !Held->expired(unixMillisNow()))
      continue;
    Result<bool> Stolen = tryAcquireLease(
        leasePath(Id), Options.Owner,
        static_cast<int64_t>(Options.LeaseSeconds * 1e3));
    if (!Stolen || !*Stolen)
      continue; // A peer is reclaiming it; their journal write follows.
    E.Record.State = JobState::Queued;
    E.Record.Owner.clear();
    E.Record.Message =
        "reclaimed after lease expiry (owner '" + Parsed->Owner + "')";
    E.Record.Reclaims += 1;
    appendJournalLocked(E, stateLineLocked(E));
    releaseLease(leasePath(Id), Options.Owner);
    Claimable = true;
    if (Log)
      Log->bump("serve.jobs.reclaimed");
  }
  Guard.unlock();
  if (Claimable)
    notify();
  return Claimable;
}

std::vector<JobRecord> JobQueue::snapshot() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  std::vector<JobRecord> Out;
  Out.reserve(Order.size());
  for (const std::string &Id : Order)
    Out.push_back(Jobs.at(Id)->Record);
  return Out;
}

Result<JobRecord> JobQueue::get(const std::string &Id) const {
  std::lock_guard<std::mutex> Guard(Mutex);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return Error::failure("no such job '" + Id + "'");
  return It->second->Record;
}

size_t JobQueue::queuedCountLocked() const {
  size_t Count = 0;
  for (const auto &KV : Jobs)
    if (KV.second->Record.State == JobState::Queued)
      ++Count;
  return Count;
}

size_t JobQueue::queuedCount() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return queuedCountLocked();
}

size_t JobQueue::runningCount() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  size_t Count = 0;
  for (const auto &KV : Jobs)
    if (KV.second->Record.State == JobState::Running)
      ++Count;
  return Count;
}

std::map<std::string, int64_t> JobQueue::stateCounts() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  std::map<std::string, int64_t> Out;
  for (JobState S : {JobState::Queued, JobState::Running, JobState::Done,
                     JobState::Failed, JobState::Cancelled})
    Out[jobStateName(S)] = 0;
  for (const auto &KV : Jobs)
    Out[jobStateName(KV.second->Record.State)] += 1;
  return Out;
}

bool JobQueue::allSettled() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  for (const auto &KV : Jobs)
    if (!KV.second->Record.terminal())
      return false;
  return true;
}
