//===- perfbench/driver/Serve.cpp - Serving phases and the predict workload ===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace wootz;

namespace perfbench {

namespace {

/// A failed request counts as missing every latency limit: it is
/// recorded at the client timeout.
constexpr double FailedLatency = 30.0;

/// Checks one predict response against the reference logits; returns an
/// empty string when it matches.
std::string verifyPrediction(const std::string &Body,
                             const std::vector<float> &Reference) {
  Result<Json> Parsed = parseJson(Body);
  if (!Parsed)
    return Parsed.message();
  const Json &Logits = (*Parsed)["logits"];
  if (Logits.Items.size() != Reference.size())
    return "logit count " + std::to_string(Logits.Items.size());
  int RefArgMax = 0;
  for (size_t I = 0; I < Reference.size(); ++I) {
    if (std::fabs(Logits.Items[I].num() - Reference[I]) > 1e-4)
      return "logit " + std::to_string(I) + " off by " +
             std::to_string(Logits.Items[I].num() - Reference[I]);
    if (Reference[I] > Reference[static_cast<size_t>(RefArgMax)])
      RefArgMax = static_cast<int>(I);
  }
  if (static_cast<int>((*Parsed)["argmax"].num(-1)) != RefArgMax)
    return "argmax differs";
  return "";
}

void sleepUntil(double At) {
  const double Wait = At - now();
  if (Wait > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
}

} // namespace

std::string sampleBody(const Tensor &Sample) {
  std::string Values;
  char Buffer[32];
  for (size_t I = 0; I < Sample.size(); ++I) {
    std::snprintf(Buffer, sizeof(Buffer), "%s%.9g", I ? " " : "",
                  Sample.data()[I]);
    Values += Buffer;
  }
  return jsonBody({{"input", Values}});
}

ServeSetup makeServeSetup(const std::string &ModelId, const ModelSpec &Spec,
                          AssembledNetwork &Reference, uint64_t Seed,
                          int Requests) {
  ServeSetup S;
  S.ModelId = ModelId;
  // Samples: the CUB200 analogue at the model's geometry, drawn from the
  // run seed; the order and the arrival schedule come from their own
  // streams.
  SyntheticSpec DataSpec = standardDatasetSpecs(1.0)[1];
  DataSpec.Classes = Spec.Layers.back().NumOutput;
  DataSpec.Height = Spec.InputHeight;
  DataSpec.Width = Spec.InputWidth;
  DataSpec.Seed = streamSeed(Seed, 2);
  const Dataset Data = generateSynthetic(DataSpec);
  constexpr int Distinct = 64;
  std::vector<int> Pick(static_cast<size_t>(Data.Test.exampleCount()));
  for (size_t I = 0; I < Pick.size(); ++I)
    Pick[I] = static_cast<int>(I);
  Rng Shuffle(streamSeed(Seed, 3));
  Shuffle.shuffle(Pick);
  ExecContext Ctx(Reference.Network);
  for (int I = 0; I < Distinct; ++I) {
    Batch One = Data.Test.gather({Pick[static_cast<size_t>(I)]});
    S.Samples.push_back(One.Images);
    Ctx.setInput(Reference.InputNode, One.Images);
    Ctx.forward(Reference.Network, /*Training=*/false);
    const Tensor &Logits = Ctx.activation(Reference.LogitsNode);
    S.Reference.emplace_back(Logits.data(), Logits.data() + Logits.size());
  }
  Rng Order(streamSeed(Seed, 4));
  Rng Arrivals(streamSeed(Seed, 5));
  double At = 0.0;
  for (int I = 0; I < Requests; ++I) {
    S.Order.push_back(static_cast<int>(Order.nextBelow(Distinct)));
    At += -std::log(1.0 - Arrivals.nextDouble()) / OpenRate;
    S.DueOffsets.push_back(At);
  }
  return S;
}

ServeResult runServe(const Daemon &D, const ServeSetup &S, Tracer &T,
                     int Parent, Report &R) {
  ServeResult Out;
  std::vector<std::string> Bodies;
  for (const Tensor &Sample : S.Samples)
    Bodies.push_back(sampleBody(Sample));
  const std::string Path = "/v1/models/" + S.ModelId + "/predict";
  int Mismatches = 0;
  std::string FirstMismatch;
  auto verify = [&](const HttpReply &Reply, int Sample) {
    const std::string Problem = verifyPrediction(
        Reply.Body, S.Reference[static_cast<size_t>(Sample)]);
    if (!Problem.empty() && Mismatches++ == 0)
      FirstMismatch = Problem;
  };

  const size_t Count = S.DueOffsets.size();
  Out.OpenLatency.assign(Count, FailedLatency);
  Out.Lateness.assign(Count, 0.0);
  std::vector<HttpReply> Replies(Count);

  // Open-loop requests [Begin, End): sent on the seeded Poisson schedule
  // whatever the daemon does, each timed from its due time.
  auto openWindow = [&](size_t Begin, size_t End) {
    Scope Phase(T, "serve.open", Parent);
    std::atomic<size_t> Next{Begin};
    const double Start = now() + 0.02 - S.DueOffsets[Begin];
    std::vector<std::thread> Senders;
    for (int W = 0; W < LoadThreads; ++W)
      Senders.emplace_back([&, W] {
        for (size_t I = Next++; I < End; I = Next++) {
          const double Due = Start + S.DueOffsets[I];
          sleepUntil(Due);
          const double Sent = now();
          const int Span = T.begin("serve.request", Phase.id(), W + 1);
          Replies[I] = httpCall(D.port(), "POST", Path,
                                Bodies[static_cast<size_t>(S.Order[I])]);
          T.end(Span);
          Out.Lateness[I] = Sent - Due;
          if (Replies[I].Status == 200)
            Out.OpenLatency[I] = now() - Due;
        }
      });
    for (std::thread &Sender : Senders)
      Sender.join();
    const std::vector<double> Window(Out.OpenLatency.begin() + Begin,
                                     Out.OpenLatency.begin() + End);
    Out.WindowP50.push_back(quantile(Window, 0.5));
    Out.WindowP90.push_back(quantile(Window, 0.9));
  };

  // Closed loop: LoadThreads callers, each sending its next request as
  // soon as the previous one is answered.
  auto closedWindow = [&](double Seconds, size_t Offset) {
    Scope Phase(T, "serve.closed", Parent);
    std::vector<std::vector<std::pair<int, HttpReply>>> PerThread(
        LoadThreads);
    std::vector<int64_t> WithinLimit(LoadThreads, 0);
    const double Start = now();
    const double End = Start + Seconds;
    std::vector<std::thread> Callers;
    for (int W = 0; W < LoadThreads; ++W)
      Callers.emplace_back([&, W] {
        for (size_t K = Offset + static_cast<size_t>(W); now() < End;
             K += LoadThreads) {
          const int Sample = S.Order[K % S.Order.size()];
          const double Sent = now();
          HttpReply Reply = httpCall(D.port(), "POST", Path,
                                     Bodies[static_cast<size_t>(Sample)]);
          if (Reply.Status == 200 && now() - Sent <= LatencyLimitSeconds)
            ++WithinLimit[static_cast<size_t>(W)];
          PerThread[static_cast<size_t>(W)].emplace_back(Sample,
                                                         std::move(Reply));
        }
      });
    for (std::thread &Caller : Callers)
      Caller.join();
    const double Took = now() - Start;
    int64_t Ok = 0;
    for (int W = 0; W < LoadThreads; ++W) {
      Ok += WithinLimit[static_cast<size_t>(W)];
      for (const auto &[Sample, Reply] : PerThread[static_cast<size_t>(W)]) {
        ++Out.ClosedAttempted;
        const bool Good = Reply.Status == 200;
        R.count("serve.closed", !Good);
        if (!Good)
          ++Out.ClosedFailed;
        else
          verify(Reply, Sample);
      }
    }
    Out.ClosedOk += Ok;
    Out.ClosedSeconds += Took;
    Out.WindowRps.push_back(static_cast<double>(Ok) / Took);
  };

  // Warm-up, untimed: let the daemon settle after whatever preceded the
  // phase, and let its lazily built per-model state (pooled contexts,
  // packed weight panels, handler threads) fill before timing.
  {
    Scope Phase(T, "serve.warmup", Parent);
    settleDisk();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::vector<std::thread> Callers;
    std::vector<std::vector<std::pair<int, HttpReply>>> PerThread(
        LoadThreads);
    for (int W = 0; W < LoadThreads; ++W)
      Callers.emplace_back([&, W] {
        for (size_t K = static_cast<size_t>(W); K < 64; K += LoadThreads) {
          const int Sample = S.Order[K % S.Order.size()];
          PerThread[static_cast<size_t>(W)].emplace_back(
              Sample, httpCall(D.port(), "POST", Path,
                               Bodies[static_cast<size_t>(Sample)]));
        }
      });
    for (std::thread &Caller : Callers)
      Caller.join();
    for (const auto &Replies : PerThread)
      for (const auto &[Sample, Reply] : Replies) {
        R.count("serve.warmup", Reply.Status != 200);
        if (Reply.Status == 200)
          verify(Reply, Sample);
      }
  }

  // Alternate the two loops in windows, so a burst of outside
  // interference spoils one window rather than the whole phase.
  const size_t Windows = static_cast<size_t>(std::max(1, S.Windows));
  for (size_t W = 0; W < Windows; ++W) {
    openWindow(Count * W / Windows, Count * (W + 1) / Windows);
    closedWindow(S.ClosedSeconds / static_cast<double>(Windows),
                 Count * W / Windows);
  }

  for (size_t I = 0; I < Count; ++I) {
    const bool Ok = Replies[I].Status == 200;
    R.count("serve.open", !Ok);
    if (!Ok) {
      ++Out.OpenFailed;
      continue;
    }
    verify(Replies[I], S.Order[I]);
  }
  Out.GeneratorBehind = quantile(Out.Lateness, 0.99) > BehindLimitSeconds;
  R.check(Mismatches == 0,
          "predict responses match the in-process reference (" +
              std::to_string(Mismatches) + " mismatches; first: " +
              FirstMismatch + ")");
  R.check(Out.ClosedAttempted > 0, "closed loop sent requests");
  return Out;
}

void reportServe(const ServeResult &S, Report &R) {
  R.metric("predict_p50_ms", median(S.WindowP50) * 1e3, "ms");
  R.metric("predict_rps", median(S.WindowRps), "1/s");
  char Text[200];
  std::snprintf(Text, sizeof(Text),
                "p50 %.3f ms, p99 %.3f ms, max %.3f ms over %zu requests%s",
                quantile(S.Lateness, 0.5) * 1e3,
                quantile(S.Lateness, 0.99) * 1e3,
                quantile(S.Lateness, 1.0) * 1e3, S.Lateness.size(),
                S.GeneratorBehind ? " (GENERATOR BEHIND)" : "");
  R.note("open_loop_lateness", Text);
  R.note("open_loop_generator_behind", S.GeneratorBehind ? "yes" : "no");
  std::snprintf(Text, sizeof(Text),
                "whole phase: p50 %.3f ms, p99 %.3f ms over %zu requests "
                "in %zu windows",
                quantile(S.OpenLatency, 0.5) * 1e3,
                quantile(S.OpenLatency, 0.99) * 1e3, S.OpenLatency.size(),
                S.WindowP50.size());
  R.note("open_loop_latency", Text);
  std::string Windows;
  for (size_t W = 0; W < S.WindowP90.size(); ++W) {
    if (W)
      Windows += ", ";
    Windows += formatDouble(S.WindowP50[W] * 1e3, 3) + "/" +
               formatDouble(S.WindowP90[W] * 1e3, 3) + "/" +
               formatDouble(S.WindowRps[W], 1);
  }
  R.note("windows_p50ms_p90ms_rps", Windows);
  std::snprintf(Text, sizeof(Text),
                "%lld of %lld within %.0f ms in %.3f s",
                static_cast<long long>(S.ClosedOk),
                static_cast<long long>(S.ClosedAttempted),
                LatencyLimitSeconds * 1e3, S.ClosedSeconds);
  R.note("closed_loop", Text);
  if (S.GeneratorBehind)
    std::printf("perfbench: WARNING open-loop generator fell behind "
                "(p99 lateness above %.0f ms)\n",
                BehindLimitSeconds * 1e3);
}

//===----------------------------------------------------------------------===//
// predict
//===----------------------------------------------------------------------===//

Error runPredict(const RunOptions &Options, Report &R) {
  const std::string Prototxt =
      standardModelPrototxt(StandardModel::InceptionB, 14);
  Result<ModelSpec> Spec = parseModelSpec(Prototxt);
  if (!Spec)
    return Spec.takeError();

  // The seeded weight bundle, and the reference network built from it
  // the way the daemon builds an upload.
  Result<BuiltNetwork> Source = buildFullNetwork(*Spec, streamSeed(Options.Seed, 6));
  if (!Source)
    return Source.takeError();
  const std::string Bundle =
      serializeTensors(exportWeights(Source->Network, FullNetworkPrefix));
  Result<BuiltNetwork> Built = buildFullNetwork(*Spec, 1);
  if (!Built)
    return Built.takeError();
  Result<TensorBundle> Decoded = deserializeTensors(Bundle);
  if (!Decoded)
    return Decoded.takeError();
  if (Error E = importWeights(Built->Network, FullNetworkPrefix, *Decoded))
    return E;
  auto Served = std::make_shared<AssembledNetwork>();
  Served->InputNode = Built->InputNode;
  Served->LogitsNode = Built->LogitsNode;
  Served->Network = std::move(Built->Network);

  const double OpenSeconds = std::max(2.0, Options.Seconds * 0.8);
  ServeSetup Setup = makeServeSetup(
      "served", *Spec, *Served, Options.Seed,
      static_cast<int>(OpenSeconds * OpenRate));
  Setup.ClosedSeconds = std::max(1.0, Options.Seconds * 0.2);
  Setup.Windows = 4;
  const std::string UploadBody = jsonBody(
      {{"model", Prototxt}, {"weights_b64", base64Encode(Bundle)},
       {"id", "served"}});

  // The side job: a short pruning job on the uploaded model, after the
  // serving phases, so the training layers never run under load.
  JobInputs Job;
  Job.ModelField = "served";
  Job.Prototxt = Prototxt;
  Job.Subspace = seededSubspace(*Spec, JobInputSeed, 4, 0);
  Job.Meta.FullModelSteps = 150;
  Job.Meta.PretrainSteps = 20;
  Job.Meta.FinetuneSteps = 20;
  Job.Meta.BatchSize = 8;
  Job.Meta.EvalEvery = 10;
  Job.Meta.EarlyStopPatience = 2;
  Job.ObjectiveText = "min ModelSize\nconstraint Accuracy >= 0\n";
  // One worker: the winner is position 0, and with two workers whether
  // position 1 had started before the cancel would decide the job's work.
  Job.Workers = 1;

  Tracer T(Options.Trace, "predict-" + std::to_string(Options.Seed));
  const int Root = T.begin("run", -1);
  const int Setups = Options.Trace ? 1 : 5;
  std::vector<double> SetupSeconds;
  std::unique_ptr<Daemon> D;
  for (int K = 0; K < Setups; ++K) {
    if (D)
      D->stop();
    const std::string State =
        Options.WorkDir + "/state-predict-" + std::to_string(K);
    removeTree(State);
    Scope SetupSpan(T, "setup", Root);
    const double Start = now();
    Result<std::unique_ptr<Daemon>> Started = Daemon::start(Options.Cli, State);
    if (!Started)
      return Started.takeError();
    D = Started.take();
    HttpReply Upload = httpCall(D->port(), "POST", "/v1/models", UploadBody);
    R.count("setup", Upload.Status != 201);
    R.check(Upload.Status == 201,
            "model upload answered " + std::to_string(Upload.Status) + " " +
                Upload.Body);
    HttpReply First = httpCall(D->port(), "POST", "/v1/models/served/predict",
                               sampleBody(Setup.Samples[0]));
    R.count("setup", First.Status != 200);
    R.check(First.Status == 200 &&
                verifyPrediction(First.Body, Setup.Reference[0]).empty(),
            "first prediction after upload");
    SetupSeconds.push_back(now() - Start);
  }

  ServeResult Served1 = runServe(*D, Setup, T, Root, R);
  // The serving daemon's peak: upload, warm-up and both loops.
  const double PeakRss = D->peakRssMb();

  // Each repetition starts a fresh daemon over an emptied store: no
  // teacher, no blocks, and its own kernel cost-model calibration.
  std::vector<JobOutcome> Jobs;
  const int JobRuns = Options.Trace ? 1 : 7;
  for (int K = 0; K < JobRuns; ++K) {
    const std::string State = D->stateDir();
    D->stop();
    removeTree(State + "/cache");
    removeTree(State + "/block_cache");
    settleDisk();
    Result<std::unique_ptr<Daemon>> Restarted =
        Daemon::start(Options.Cli, State);
    if (!Restarted)
      return Restarted.takeError();
    D = Restarted.take();
    Jobs.push_back(runJob(*D, Job.body(true), T, Root, R, "job"));
    const JobOutcome &O = Jobs.back();
    R.check(O.WinnerIndex == 0 && O.WinnerAccuracy >= 0.0,
            "side job winner at position 0");
    R.check(O.WinnerAccuracy == Jobs.front().WinnerAccuracy &&
                O.WinnerSizeFraction == Jobs.front().WinnerSizeFraction,
            "side job winner identical across repetitions");
  }
  D->stop();
  T.end(Root);

  std::vector<double> JobSeconds;
  for (const JobOutcome &O : Jobs)
    JobSeconds.push_back(O.JobSeconds);
  noteJobSeconds(JobSeconds, R);
  R.metric("setup_s", median(SetupSeconds), "s");
  R.metric("peak_rss_mb", PeakRss, "MiB");
  R.metric("job_s", mean(JobSeconds), "s");
  R.metric("winner_size_pct", 100.0 * Jobs.front().WinnerSizeFraction, "%");
  R.metric("winner_accuracy", Jobs.front().WinnerAccuracy, "fraction");
  reportServe(Served1, R);
  if (!Options.Trace)
    return Error::success();

  ReplayInputs In;
  In.Job = &Job;
  In.Outcome = &Jobs.back();
  In.Timed = &Jobs;
  In.BlockCacheDir = Options.WorkDir + "/replay_blocks";
  In.ColdBlockCache = true;
  In.Served = Served;
  In.ServedSpec = &*Spec;
  In.Serve = &Setup;
  In.Http = &Served1;
  if (Error E = replayLayers(In, Options, R))
    return E;
  return T.writeChromeTrace(Options.WorkDir + "/predict-" +
                            std::to_string(Options.Seed) + ".run.trace.json");
}

} // namespace perfbench
