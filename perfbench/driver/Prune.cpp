//===- perfbench/driver/Prune.cpp - The prune_cold and prune_warm workloads ===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "bench/BenchCommon.h"

#include <algorithm>
#include <cstdio>

using namespace wootz;

namespace perfbench {

namespace {

constexpr int SubspaceSize = 16;
constexpr int CalibrationAttempts = 8;

/// Chooses the subspace and the accuracy threshold for the run seed.
///
/// The subspace comes from JobInputSeed. The threshold must put the winner in the second half of the
/// exploration order. Per-position accuracies are deterministic for a
/// given subspace (the pipeline pre-draws every seed), so one untimed
/// in-process run of the job — the same pipeline the daemon runs, on the
/// teacher the daemon just cached — yields them. The threshold is set
/// halfway between the best accuracy in the first half and the next
/// accuracy level above it; a subspace whose best configuration sits in
/// the first half is redrawn from the next stream of the seed.
Error calibrate(JobInputs &Job, const ModelSpec &Spec,
                const std::string &TeacherCacheDir, Report &R) {
  for (int Attempt = 0; Attempt < CalibrationAttempts; ++Attempt) {
    Job.Subspace = seededSubspace(Spec, JobInputSeed, SubspaceSize, Attempt);
    Result<PipelineResult> Run = calibrationRun(Job, TeacherCacheDir);
    if (!Run)
      return Run.takeError();
    // Evaluations are stored in exploration order (ascending size).
    const std::vector<EvaluatedConfig> &Evals = Run->Evaluations;
    const size_t Half = Evals.size() / 2;
    double FirstBest = 0.0;
    for (size_t P = 0; P < Half; ++P)
      FirstBest = std::max(FirstBest, Evals[P].FinalAccuracy);
    double NextLevel = 2.0;
    for (const EvaluatedConfig &E : Evals)
      if (E.FinalAccuracy > FirstBest)
        NextLevel = std::min(NextLevel, E.FinalAccuracy);
    if (NextLevel > 1.0)
      continue;
    char Text[96];
    std::snprintf(Text, sizeof(Text), "%.6f", 0.5 * (FirstBest + NextLevel));
    Job.Threshold = std::atof(Text);
    Job.ObjectiveText =
        std::string("min ModelSize\nconstraint Accuracy >= ") + Text + "\n";
    for (size_t P = 0; P < Evals.size(); ++P)
      if (Evals[P].FinalAccuracy >= Job.Threshold) {
        Job.ExpectedWinner = static_cast<int>(P);
        Job.ExpectedAccuracy = Evals[P].FinalAccuracy;
        Job.WinnerNetwork = Evals[P].Network;
        break;
      }
    R.note("subspace_attempt", std::to_string(Attempt));
    R.note("objective_threshold", Text);
    R.note("expected_winner_position", std::to_string(Job.ExpectedWinner));
    return Error::success();
  }
  return Error::failure("no subspace drawn puts its best configuration in "
                        "the second half");
}

/// The job-result checks every timed prune job must pass.
void checkWinner(const JobOutcome &O, const JobInputs &Job, Report &R) {
  R.check(O.WinnerIndex == Job.ExpectedWinner,
          "job " + O.Id + " winner at position " +
              std::to_string(O.WinnerIndex) + ", expected " +
              std::to_string(Job.ExpectedWinner));
  R.check(O.WinnerIndex >= SubspaceSize / 2,
          "winner sits in the second half of the exploration order");
  R.check(O.WinnerAccuracy >= Job.Threshold,
          "winner meets the accuracy threshold");
  R.check(std::abs(O.WinnerAccuracy - Job.ExpectedAccuracy) < 5e-7,
          "job " + O.Id + " winner accuracy equals the calibration's");
}

/// The winner \p ModelId's logits, as served, for eight probe inputs:
/// the exact bytes two bit-identical winners must agree on.
std::vector<std::string> probeLogits(const Daemon &D,
                                     const std::string &ModelId,
                                     const JobInputs &Job,
                                     const ModelSpec &Spec) {
  const ServeSetup Probes = makeServeSetup(ModelId, Spec,
                                           *Job.WinnerNetwork, 0, 0);
  std::vector<std::string> Out;
  for (size_t I = 0; I < 8; ++I) {
    const HttpReply Reply =
        httpCall(D.port(), "POST", "/v1/models/" + ModelId + "/predict",
                 sampleBody(Probes.Samples[I]));
    Result<Json> Parsed = parseJson(Reply.Body);
    std::string Logits;
    if (Reply.Status == 200 && Parsed)
      for (const Json &Value : (*Parsed)["logits"].Items)
        Logits += jsonNumber(Value.num()) + " ";
    Out.push_back(Reply.Status == 200 ? Logits : "failed");
  }
  return Out;
}

} // namespace

Error runPrune(const RunOptions &Options, bool Warm, Report &R) {
  const std::string Prototxt =
      standardModelPrototxt(StandardModel::InceptionB, 14);
  Result<ModelSpec> Spec = parseModelSpec(Prototxt);
  if (!Spec)
    return Spec.takeError();

  JobInputs Job;
  Job.ModelField = Prototxt;
  Job.Prototxt = Prototxt;
  Job.Meta = bench::defaultMeta();

  // The set-up job: a baseline (no composability) run of one
  // configuration, whose real work is training the teacher into the
  // daemon's model cache.
  JobInputs Baseline = Job;
  Baseline.Subspace = {PruneConfig(static_cast<size_t>(Spec->moduleCount()),
                                   0.3f)};
  Baseline.ObjectiveText = "min ModelSize\nconstraint Accuracy >= 0\n";

  const std::string Name = Warm ? "prune_warm" : "prune_cold";
  Tracer T(Options.Trace, Name + "-" + std::to_string(Options.Seed));
  const int Root = T.begin("run", -1);
  const int Rounds = Options.Trace ? 1 : 2;
  const double TimedPerRound = Options.Seconds / Rounds;
  std::vector<double> SetupSeconds, PeakRss, JobSeconds;
  std::vector<JobOutcome> Timed;
  std::unique_ptr<Daemon> D;
  ServeSetup Serving;
  ServeResult Served;
  int BlockCount = -1;
  std::vector<std::string> ColdWinnerLogits;

  for (int Round = 0; Round < Rounds; ++Round) {
    const std::string State =
        Options.WorkDir + "/state-" + Name + "-" + std::to_string(Round);
    removeTree(State);
    double SetupTime = 0.0;
    {
      Scope SetupSpan(T, "setup", Root);
      const double Start = now();
      Result<std::unique_ptr<Daemon>> Started =
          Daemon::start(Options.Cli, State);
      if (!Started)
        return Started.takeError();
      D = Started.take();
      runJob(*D, Baseline.body(false), T, SetupSpan.id(), R, "setup");
      SetupTime = now() - Start;
    }
    if (Round == 0) {
      Scope CalibrationSpan(T, "calibration", Root);
      if (Error E = calibrate(Job, *Spec, State + "/cache", R))
        return E;
    }
    if (Warm) {
      // The warm store: a cold run of the same job publishes every block.
      Scope SetupSpan(T, "setup", Root);
      const double Start = now();
      JobOutcome Cold = runJob(*D, Job.body(true), T, SetupSpan.id(), R,
                               "setup");
      SetupTime += now() - Start;
      checkWinner(Cold, Job, R);
      BlockCount = static_cast<int>(Cold.Counters["cache.miss"]);
      if (Round == 0)
        ColdWinnerLogits = probeLogits(*D, Cold.Id, Job, *Spec);
    }
    SetupSeconds.push_back(SetupTime);

    // Every timed job runs on a freshly started daemon over the round's
    // store: the kernel layer calibrates its threading cost model from
    // timings once per process, so one process can run markedly faster
    // or slower than the next. job_s is the mean over those processes,
    // the time a user restarting the daemon should expect; a median
    // would flip between the two speeds from run to run.
    double TimedSoFar = 0.0;
    int JobsThisRound = 0;
    const int MinJobs = Options.Trace ? 1 : 3;
    while (JobsThisRound < MinJobs ||
           (!Options.Trace && TimedSoFar < TimedPerRound)) {
      D->stop();
      // A cold job starts from an empty tuning-block cache.
      if (!Warm)
        removeTree(State + "/block_cache");
      settleDisk();
      Result<std::unique_ptr<Daemon>> Restarted =
          Daemon::start(Options.Cli, State);
      if (!Restarted)
        return Restarted.takeError();
      D = Restarted.take();
      JobOutcome O = runJob(*D, Job.body(true), T, Root, R, "job");
      const std::string Metrics = httpCall(D->port(), "GET", "/metrics").Body;
      checkWinner(O, Job, R);
      const double Hits = metricsCounter(Metrics, "jobs", "cache.hit");
      const double Misses = metricsCounter(Metrics, "jobs", "cache.miss");
      if (Warm) {
        R.check(Misses == 0 && Hits == BlockCount && BlockCount > 0,
                "warm job " + O.Id + " pre-trained no block (/metrics "
                "cache.hit " + std::to_string(Hits) + ", cache.miss " +
                    std::to_string(Misses) + ", blocks " +
                    std::to_string(BlockCount) + ")");
      } else {
        R.check(Hits == 0 && Misses > 0,
                "cold job " + O.Id + " started from an empty block cache");
        if (BlockCount < 0)
          BlockCount = static_cast<int>(Misses);
        R.check(Misses == BlockCount, "cold jobs miss the same blocks");
      }
      PeakRss.push_back(D->peakRssMb());
      TimedSoFar += O.JobSeconds;
      JobSeconds.push_back(O.JobSeconds);
      Timed.push_back(std::move(O));
      ++JobsThisRound;
    }

    if (Round == Rounds - 1) {
      // Serve the last winner, checked against the calibration's copy.
      const JobOutcome &Last = Timed.back();
      Serving = makeServeSetup(
          Last.Id, *Spec, *Job.WinnerNetwork, Options.Seed,
          static_cast<int>(OpenRate * std::max(2.0, Options.Seconds * 0.5)));
      Serving.ClosedSeconds = std::max(1.0, Options.Seconds * 0.25);
      Serving.Windows = 3;
      Served = runServe(*D, Serving, T, Root, R);
      if (Warm)
        R.check(probeLogits(*D, Last.Id, Job, *Spec) == ColdWinnerLogits,
                "the warm winner answers the probes with exactly the cold "
                "winner's logits");
    }
    D->stop();
  }
  T.end(Root);

  // Quality guards: every timed job found the same winner.
  for (const JobOutcome &O : Timed)
    R.check(O.WinnerAccuracy == Timed.front().WinnerAccuracy &&
                O.WinnerSizeFraction == Timed.front().WinnerSizeFraction,
            "winner identical across repetitions");

  noteJobSeconds(JobSeconds, R);
  R.metric("setup_s", median(SetupSeconds), "s");
  R.metric("peak_rss_mb", median(PeakRss), "MiB");
  R.metric("job_s", mean(JobSeconds), "s");
  R.metric("winner_size_pct", 100.0 * Timed.front().WinnerSizeFraction, "%");
  R.metric("winner_accuracy", Timed.front().WinnerAccuracy, "fraction");
  reportServe(Served, R);
  if (!Options.Trace)
    return Error::success();

  ReplayInputs In;
  In.Job = &Job;
  In.Outcome = &Timed.back();
  In.Timed = &Timed;
  In.BlockCacheDir = Options.WorkDir + "/state-" + Name + "-0/block_cache";
  if (!Warm) {
    In.BlockCacheDir = Options.WorkDir + "/replay_blocks";
    In.ColdBlockCache = true;
  }
  In.Served = Job.WinnerNetwork;
  In.ServedSpec = &*Spec;
  In.Serve = &Serving;
  In.Http = &Served;
  if (Error E = replayLayers(In, Options, R))
    return E;
  return T.writeChromeTrace(Options.WorkDir + "/" + Name + "-" +
                            std::to_string(Options.Seed) + ".run.trace.json");
}

} // namespace perfbench
