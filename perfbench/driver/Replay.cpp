//===- perfbench/driver/Replay.cpp - In-process per-layer replay ------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer numbers. The job is replayed serially
/// through the public layer calls, evaluating exactly the configurations
/// the daemon's job evaluated, with a span around each call; the serve
/// schedule is replayed straight into an in-process Batcher with the
/// daemon's default options; the served model's forward, plan and kernel
/// costs are measured at the workload's own shapes. Spans are recorded
/// from this file only — nothing inside the library is instrumented.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "src/nn/Loss.h"
#include "src/nn/Optimizer.h"
#include "src/serve/Batcher.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <thread>

using namespace wootz;

namespace perfbench {

namespace {

struct JobReplay {
  double WallSeconds = 0.0;
  double TeacherSeconds = 0.0; ///< Timed whether or not spans are on.
  int Blocks = 0;
  int Groups = 0;
  int BlocksPretrained = 0;
  int Hits = 0;
  int Misses = 0;
  int FinetuneSteps = 0;
  int WinnerPosition = -1;
  double WinnerAccuracy = 0.0;
  int RootSpan = -1;
};

/// One serial replay of the job's layer calls.
Result<JobReplay> replayJob(const JobInputs &Job, const JobOutcome &Outcome,
                            const std::string &BlockCacheDir, Tracer &T) {
  JobReplay Out;
  const double Start = now();
  Scope Root(T, "replay.job", -1);
  Out.RootSpan = Root.id();
  const int Parent = Root.id();

  std::optional<ModelSpec> Spec;
  std::optional<MultiplexingModel> Model;
  {
    Scope S(T, "compiler.build", Parent);
    Result<ModelSpec> Parsed = parseModelSpec(Job.Prototxt);
    if (!Parsed)
      return Parsed.takeError();
    Spec.emplace(Parsed.take());
    Model.emplace(*Spec);
  }
  std::optional<Dataset> Data;
  {
    Scope S(T, "data.generate", Parent);
    Data.emplace(jobDataset(*Spec, Job.DatasetScale, Job.JobSeed));
  }
  Rng Generator(Job.JobSeed);
  std::optional<FullModel> Full;
  {
    Scope S(T, "train.teacher", Parent);
    const double TeacherStart = now();
    Result<FullModel> Trained =
        prepareFullModel(*Model, *Data, Job.Meta, "", Generator);
    if (!Trained)
      return Trained.takeError();
    Full.emplace(Trained.take());
    Out.TeacherSeconds = now() - TeacherStart;
  }
  FilterScores Scores;
  {
    Scope S(T, "pruning.score", Parent);
    Result<FilterScores> Scored = scoreFilters(
        *Spec, Full->Network, "full", ImportanceCriterion::L1Norm, &*Data);
    if (!Scored)
      return Scored.takeError();
    Scores = Scored.take();
  }
  CacheConfig CacheOptions;
  CacheOptions.Directory = BlockCacheDir;
  BlockCache Cache(CacheOptions);
  {
    Scope S(T, "train.blockcache_bind", Parent);
    Cache.bindContext(BlockCache::fingerprintTeacher(Full->Network),
                      BlockCache::hashPretrainMeta(Job.Meta));
  }
  std::vector<PruneConfig> Subspace = Job.Subspace;
  {
    Scope S(T, "explore.order", Parent);
    std::sort(Subspace.begin(), Subspace.end(),
              [&](const PruneConfig &A, const PruneConfig &B) {
                return modelWeightCount(*Spec, A) <
                       modelWeightCount(*Spec, B);
              });
  }
  IdentifierResult Identified;
  {
    Scope S(T, "identifier.identify", Parent);
    Identified = identifyTuningBlocks(Spec->moduleCount(), Subspace,
                                      subspaceRateAlphabet(Subspace));
  }
  Out.Blocks = static_cast<int>(Identified.Blocks.size());

  // Block pre-training, drawn exactly like the Overlap schedule: one base
  // seed, cache fetches first, then one generator per group.
  const uint64_t BaseSeed = Generator.next();
  CheckpointStore Store;
  std::vector<TuningBlock> Pending;
  for (const TuningBlock &Block : Identified.Blocks) {
    if (Block.isIdentity() || Store.contains(Block.id()))
      continue;
    bool Hit = false;
    {
      Scope S(T, "train.blockcache_fetch", Parent);
      Hit = Cache.fetch(Block.id(), Store);
    }
    ++(Hit ? Out.Hits : Out.Misses);
    if (!Hit)
      Pending.push_back(Block);
  }
  const std::vector<std::vector<TuningBlock>> Groups =
      partitionIntoGroups(std::move(Pending));
  const std::set<int> Trained(Outcome.PretrainedGroups.begin(),
                              Outcome.PretrainedGroups.end());
  for (size_t G = 0; G < Groups.size(); ++G) {
    if (!Trained.count(static_cast<int>(G)))
      continue;
    Rng GroupGen(pretrainGroupSeed(BaseSeed, Groups[G]));
    {
      Scope S(T, "train.pretrain", Parent);
      Result<GroupPretrainStats> Stats =
          pretrainGroup(*Model, Full->Network, "full", Groups[G], *Data,
                        Job.Meta, Store, GroupGen, &Scores, nullptr);
      if (!Stats)
        return Stats.takeError();
    }
    ++Out.Groups;
    for (const TuningBlock &Block : Groups[G]) {
      ++Out.BlocksPretrained;
      Scope S(T, "train.blockcache_publish", Parent);
      if (Error E = Cache.publish(Block.id(), Store))
        return E;
    }
  }

  // Per-configuration seeds are drawn up front, then exactly the
  // positions the job evaluated are rebuilt and fine-tuned.
  std::vector<uint64_t> Seeds(Subspace.size());
  for (uint64_t &Seed : Seeds)
    Seed = Generator.next();
  Result<PruningObjective> Objective = parseObjective(Job.ObjectiveText);
  if (!Objective)
    return Objective.takeError();
  for (int Position : Outcome.EvaluatedPositions) {
    const size_t Index = static_cast<size_t>(Position);
    if (Index >= Subspace.size())
      return Error::failure("evaluated position out of range");
    std::vector<TuningBlock> Composite;
    for (int B : Identified.CompositeVectors[Index])
      Composite.push_back(Identified.Blocks[static_cast<size_t>(B)]);
    Rng ConfigGen(Seeds[Index]);
    std::optional<AssembledNetwork> Net;
    {
      Scope S(T, "train.assemble", Parent);
      Result<AssembledNetwork> Built =
          buildPrunedNetwork(*Model, Subspace[Index], Full->Network, "full",
                             &Store, &Composite, ConfigGen, &Scores);
      if (!Built)
        return Built.takeError();
      Net.emplace(Built.take());
    }
    TrainResult Tuned;
    {
      Scope S(T, "train.finetune", Parent);
      Tuned = trainClassifier(Net->Network, Net->InputNode, Net->LogitsNode,
                              *Data, Job.Meta, Job.Meta.FinetuneSteps,
                              Job.Meta.FinetuneLearningRate, ConfigGen);
    }
    if (!Tuned.Curve.empty())
      Out.FinetuneSteps += Tuned.Curve.back().Step;
    {
      Scope S(T, "train.eval", Parent);
      (void)evaluateAccuracy(Net->Network, Net->InputNode, Net->LogitsNode,
                             Data->Test, 64, Job.Meta.EvalThreads);
    }
    if (Out.WinnerPosition < 0 &&
        Objective->satisfied(modelWeightCount(*Spec, Subspace[Index]),
                             Tuned.FinalAccuracy)) {
      Out.WinnerPosition = Position;
      Out.WinnerAccuracy = Tuned.FinalAccuracy;
    }
  }
  Out.WallSeconds = now() - Start;
  return Out;
}

/// Median milliseconds of \p Reps calls of \p Body after two warm-ups.
template <typename F> double medianMillis(int Reps, F &&Body) {
  Body();
  Body();
  std::vector<double> Times;
  for (int I = 0; I < Reps; ++I) {
    const double Start = now();
    Body();
    Times.push_back((now() - Start) * 1e3);
  }
  return median(Times);
}

Tensor stackSamples(const std::vector<Tensor> &Samples, int Count) {
  const Shape &One = Samples.front().shape();
  Tensor Out(Shape{Count, One[1], One[2], One[3]});
  const size_t Per = Samples.front().size();
  for (int I = 0; I < Count; ++I)
    std::copy(Samples[static_cast<size_t>(I) % Samples.size()].data(),
              Samples[static_cast<size_t>(I) % Samples.size()].data() + Per,
              Out.data() + static_cast<size_t>(I) * Per);
  return Out;
}

/// GFLOP/s of the fused conv forward and of the three training GEMMs
/// (forward, input gradient, weight gradient) at the plan's conv shapes.
std::pair<double, double> kernelRates(const ExecPlan &Plan, int Batch,
                                      Tracer &T, int Parent) {
  double ConvFlops = 0.0, ConvSeconds = 0.0;
  double GemmFlops = 0.0, GemmSeconds = 0.0;
  Rng Fill(99);
  for (const PlanStep &Step : Plan.steps()) {
    if (Step.Kind != PlanStep::Op::Conv)
      continue;
    const PlanBuffer &In =
        Plan.buffers()[static_cast<size_t>(Step.Inputs[0])];
    const ConvGeometry &G = Step.Geometry;
    const int OH = G.outExtent(In.Height), OW = G.outExtent(In.Width);
    const int M = G.OutChannels, K = G.InChannels * G.KernelSize *
                                         G.KernelSize,
              N = OH * OW;
    auto randomBuffer = [&Fill](size_t Count) {
      std::vector<float> Out(Count);
      for (float &V : Out)
        V = Fill.nextFloat() - 0.5f;
      return Out;
    };
    const std::vector<float> Images = randomBuffer(
        static_cast<size_t>(Batch) * In.Channels * In.Height * In.Width);
    const std::vector<float> Weights =
        randomBuffer(static_cast<size_t>(M) * K);
    std::vector<float> Out(static_cast<size_t>(Batch) * M * N);
    {
      Scope S(T, "tensor.conv_fwd", Parent);
      const double Millis = medianMillis(20, [&] {
        convForwardFused(Images.data(), Batch, In.Height, In.Width, G,
                         nullptr, Weights.data(), nullptr, false,
                         Out.data());
      });
      ConvSeconds += Millis * 1e-3;
      ConvFlops += 2.0 * Batch * M * K * N;
    }
    // Training GEMMs per sample: C[M,N] = W[M,K] x cols[K,N];
    // dcols[K,N] = W^T[K,M] x dY[M,N]; dW[M,K] = dY[M,N] x cols^T[N,K].
    const std::vector<float> A = randomBuffer(static_cast<size_t>(M) * K);
    const std::vector<float> B = randomBuffer(static_cast<size_t>(K) * N);
    const std::vector<float> D = randomBuffer(static_cast<size_t>(M) * N);
    std::vector<float> C(static_cast<size_t>(std::max({M * N, K * N, M * K})));
    {
      Scope S(T, "tensor.gemm_train", Parent);
      const double Millis = medianMillis(20, [&] {
        for (int I = 0; I < Batch; ++I) {
          detail::blockedGemm(A.data(), K, 1, B.data(), N, 1, C.data(), M, K,
                              N, false, nullptr);
          detail::blockedGemm(A.data(), 1, K, D.data(), N, 1, C.data(), K, M,
                              N, false, nullptr);
          detail::blockedGemm(D.data(), N, 1, B.data(), 1, N, C.data(), M, N,
                              K, false, nullptr);
        }
      });
      GemmSeconds += Millis * 1e-3;
      GemmFlops += 3.0 * 2.0 * Batch * M * K * N;
    }
  }
  return {ConvSeconds > 0 ? ConvFlops / ConvSeconds * 1e-9 : 0.0,
          GemmSeconds > 0 ? GemmFlops / GemmSeconds * 1e-9 : 0.0};
}

struct BatcherReplay {
  std::vector<double> Latency; ///< From due time, seconds.
  std::vector<int> BatchSizes;
  int Mismatches = 0;
  int Failed = 0;
};

/// The open-loop schedule again, straight into Batcher::predict with the
/// daemon's default batching options (and its context pool).
BatcherReplay replayBatcher(std::shared_ptr<AssembledNetwork> Network,
                            const ModelSpec &Spec, const ServeSetup &S,
                            Tracer &T, int Parent) {
  BatcherReplay Out;
  RunLog Log;
  serve::LatencyHistogram Histogram;
  serve::ModelRegistry Registry(serve::BatcherOptions(), &Log, &Histogram);
  if (Registry.add("replay", std::move(Network), Spec.InputChannels,
                   Spec.InputHeight, Spec.InputWidth,
                   Spec.Layers.back().NumOutput, "replay")) {
    Out.Failed = static_cast<int>(S.DueOffsets.size());
    return Out;
  }
  serve::Batcher &Engine = *Registry.find("replay")->Engine;
  const size_t Count = S.DueOffsets.size();
  Out.Latency.assign(Count, 30.0);
  Out.BatchSizes.assign(Count, 0);
  std::vector<int> Bad(Count, 0);
  Scope Phase(T, "batcher.schedule", Parent);
  std::atomic<size_t> Next{0};
  const double Start = now() + 0.02;
  std::vector<std::thread> Senders;
  for (int W = 0; W < LoadThreads; ++W)
    Senders.emplace_back([&, W] {
      for (size_t I = Next++; I < Count; I = Next++) {
        const double Due = Start + S.DueOffsets[I];
        const double Wait = Due - now();
        if (Wait > 0)
          std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
        const int Span = T.begin("batcher.predict", Phase.id(), W + 1);
        Result<serve::Prediction> P =
            Engine.predict(S.Samples[static_cast<size_t>(S.Order[I])]);
        T.end(Span);
        if (!P) {
          Bad[I] = 2;
          continue;
        }
        Out.Latency[I] = now() - Due;
        Out.BatchSizes[I] = P->BatchSize;
        const std::vector<float> &Ref =
            S.Reference[static_cast<size_t>(S.Order[I])];
        for (size_t K = 0; K < Ref.size(); ++K)
          if (std::abs(P->Logits.data()[K] - Ref[K]) > 1e-4) {
            Bad[I] = 1;
            break;
          }
      }
    });
  for (std::thread &Sender : Senders)
    Sender.join();
  for (int B : Bad) {
    Out.Mismatches += B == 1;
    Out.Failed += B == 2;
  }
  Registry.stopAll();
  return Out;
}

} // namespace

Error replayLayers(const ReplayInputs &In, const RunOptions &Options,
                   Report &R) {
  const std::string TraceId =
      Options.Workload + "-" + std::to_string(Options.Seed);

  // The job: once untraced (the overhead baseline), once traced. A cold
  // replay starts each pass from an empty block cache.
  Tracer Untraced(false, TraceId);
  if (In.ColdBlockCache)
    removeTree(In.BlockCacheDir);
  Result<JobReplay> Base =
      replayJob(*In.Job, *In.Outcome, In.BlockCacheDir, Untraced);
  if (!Base)
    return Base.takeError();
  Tracer T(true, TraceId);
  if (In.ColdBlockCache)
    removeTree(In.BlockCacheDir);
  Result<JobReplay> Job = replayJob(*In.Job, *In.Outcome, In.BlockCacheDir, T);
  if (!Job)
    return Job.takeError();

  R.check(Job->WinnerPosition == In.Outcome->WinnerIndex &&
              Job->WinnerAccuracy == Base->WinnerAccuracy &&
              std::abs(Job->WinnerAccuracy - In.Outcome->WinnerAccuracy) <
                  5e-7,
          "replay reproduces the job's winner (position " +
              std::to_string(Job->WinnerPosition) + " vs " +
              std::to_string(In.Outcome->WinnerIndex) + ")");

  R.layer("compiler.build_ms", T.total("compiler.build") * 1e3, "ms");
  R.layer("train.teacher_s", T.total("train.teacher"), "s");
  R.layer("pruning.score_s", T.total("pruning.score"), "s");
  R.layer("identifier.identify_ms", T.total("identifier.identify") * 1e3,
          "ms");
  R.layer("identifier.blocks", Job->Blocks, "count");
  R.layer("train.pretrain_s", T.total("train.pretrain"), "s");
  R.layer("train.pretrain_groups", Job->Groups, "count");
  R.layer("train.blocks_pretrained", Job->BlocksPretrained, "count");
  R.layer("train.blockcache_fetch_ms",
          T.total("train.blockcache_fetch") * 1e3, "ms");
  R.layer("train.blockcache_publish_ms",
          T.total("train.blockcache_publish") * 1e3, "ms");
  R.layer("train.blockcache_hits", Job->Hits, "count");
  R.layer("train.blockcache_misses", Job->Misses, "count");
  R.layer("train.assemble_ms", median(T.durations("train.assemble")) * 1e3,
          "ms");
  R.layer("train.finetune_s", T.total("train.finetune"), "s");
  R.layer("train.finetune_steps", Job->FinetuneSteps, "count");
  R.layer("train.eval_ms", median(T.durations("train.eval")) * 1e3, "ms");

  const int Evaluated = In.Outcome->ConfigsEvaluated;
  int Useful = 0;
  for (int P : In.Outcome->EvaluatedPositions)
    Useful += P <= In.Outcome->WinnerIndex;
  R.layer("explore.configs_evaluated", Evaluated, "count");
  R.layer("explore.configs_cancelled",
          static_cast<double>(In.Job->Subspace.size()) - Evaluated, "count");
  R.layer("explore.useful_frac",
          Evaluated > 0 ? static_cast<double>(Useful) / Evaluated : 0.0,
          "fraction");
  std::vector<double> Submit, QueueWait;
  for (const JobOutcome &O : *In.Timed) {
    Submit.push_back(O.SubmitSeconds * 1e3);
    QueueWait.push_back(O.QueueWaitSeconds * 1e3);
  }
  R.layer("jobs.submit_ms", median(Submit), "ms");
  R.layer("jobs.queue_wait_ms", median(QueueWait), "ms");

  // The served model (the job's winner, or the uploaded model).
  AssembledNetwork &Net = *In.Served;
  const ModelSpec &Spec = *In.ServedSpec;
  const int ModelRoot = T.begin("replay.model", -1);
  const Tensor One = stackSamples(In.Serve->Samples, 1);
  const Tensor Eight = stackSamples(In.Serve->Samples, 8);
  std::optional<ExecPlan> Plan;
  {
    Scope S(T, "plan.compile", ModelRoot);
    std::optional<Result<ExecPlan>> Compiled;
    const double Millis = medianMillis(5, [&] {
      Compiled.emplace(ExecPlan::compile(Net.Network, Net.InputNode,
                                         Net.LogitsNode, Spec.InputChannels,
                                         Spec.InputHeight, Spec.InputWidth));
    });
    if (!*Compiled)
      return Compiled->takeError();
    Plan.emplace(Compiled->take());
    R.layer("plan.compile_ms", Millis, "ms");
  }
  double ForwardB1 = 0.0, ForwardB8 = 0.0;
  {
    Scope S(T, "nn.forward", ModelRoot);
    ExecContext Ctx(Net.Network);
    auto forward = [&](const Tensor &Input) {
      return medianMillis(40, [&] {
        Ctx.setInput(Net.InputNode, Input);
        Ctx.forward(Net.Network, /*Training=*/false);
      });
    };
    ForwardB1 = forward(One);
    ForwardB8 = forward(Eight);
    R.layer("nn.forward_ms_b1", ForwardB1, "ms");
    R.layer("nn.forward_ms_b8", ForwardB8, "ms");
  }
  {
    Scope S(T, "plan.run", ModelRoot);
    PlanContext Ctx(*Plan);
    R.layer("plan.run_ms_b1", medianMillis(40, [&] { Ctx.run(One); }), "ms");
    R.layer("plan.run_ms_b8", medianMillis(40, [&] { Ctx.run(Eight); }),
            "ms");
  }
  {
    const auto [Conv, Gemm] =
        kernelRates(*Plan, In.Job->Meta.BatchSize, T, ModelRoot);
    R.layer("tensor.conv_fwd_gflops", Conv, "GFLOP/s");
    R.layer("tensor.gemm_train_gflops", Gemm, "GFLOP/s");
  }

  // The serve schedule straight into the Batcher.
  const BatcherReplay Batched =
      replayBatcher(In.Served, Spec, *In.Serve, T, ModelRoot);
  R.check(Batched.Mismatches == 0 && Batched.Failed == 0,
          "in-process batcher predictions match the reference (" +
              std::to_string(Batched.Mismatches) + " mismatched, " +
              std::to_string(Batched.Failed) + " failed)");
  double BatchMean = 0.0;
  for (int B : Batched.BatchSizes)
    BatchMean += B;
  BatchMean /= std::max<size_t>(1, Batched.BatchSizes.size());
  const double BatcherP50 = quantile(Batched.Latency, 0.5) * 1e3;
  const double ForwardAtMean =
      ForwardB1 + (ForwardB8 - ForwardB1) * (BatchMean - 1.0) / 7.0;
  R.layer("batcher.predict_ms_p50", BatcherP50, "ms");
  R.layer("batcher.predict_ms_p99", quantile(Batched.Latency, 0.99) * 1e3,
          "ms");
  R.layer("batcher.batch_size_mean", BatchMean, "count");
  R.layer("batcher.wait_ms_p50", BatcherP50 - ForwardAtMean, "ms");
  R.layer("serve.requests",
          static_cast<double>(In.Http->OpenLatency.size() +
                              In.Http->ClosedAttempted),
          "count");
  R.layer("serve.failed",
          static_cast<double>(In.Http->OpenFailed + In.Http->ClosedFailed),
          "count");
  R.layer("serve.p90_ms", quantile(In.Http->OpenLatency, 0.9) * 1e3, "ms");
  R.layer("serve.p99_ms", quantile(In.Http->OpenLatency, 0.99) * 1e3, "ms");
  R.layer("serve.http_self_ms_p50",
          quantile(In.Http->OpenLatency, 0.5) * 1e3 - BatcherP50, "ms");

  // Last, because it updates the served network's weights: one training
  // step (forward, backward, optimizer) at the job's batch size.
  {
    Scope S(T, "nn.train_step", ModelRoot);
    const int BatchSize = In.Job->Meta.BatchSize;
    const Tensor Input = stackSamples(In.Serve->Samples, BatchSize);
    std::vector<int> Labels;
    for (int I = 0; I < BatchSize; ++I)
      Labels.push_back(I % Spec.Layers.back().NumOutput);
    ExecContext Ctx(Net.Network);
    SgdOptimizer Optimizer(0.001f);
    const std::vector<Param *> Params = Net.Network.trainableParams();
    Tensor Grad;
    R.layer("nn.train_step_ms", medianMillis(20, [&] {
              Ctx.setInput(Net.InputNode, Input);
              Ctx.forward(Net.Network, /*Training=*/true);
              Net.Network.zeroGrads();
              softmaxCrossEntropy(Ctx.activation(Net.LogitsNode), Labels,
                                  Grad);
              Ctx.seedGradient(Net.LogitsNode, Grad);
              Ctx.backward(Net.Network);
              Optimizer.step(Params);
            }),
            "ms");
  }
  T.end(ModelRoot);

  // Coverage: how much of the job replay's wall time the layer spans
  // account for. Overhead: traced against untraced replay, leaving out
  // the teacher training, whose run-to-run noise would swamp it.
  const std::vector<Span> Spans = T.spans();
  const std::vector<double> Self = Tracer::selfTimes(Spans);
  const Span &Root = Spans[static_cast<size_t>(Job->RootSpan)];
  const double RootSeconds = Root.End - Root.Start;
  R.layer("trace.coverage",
          RootSeconds > 0
              ? 1.0 - Self[static_cast<size_t>(Job->RootSpan)] / RootSeconds
              : 0.0,
          "fraction");
  const double TracedRest = Job->WallSeconds - Job->TeacherSeconds;
  const double UntracedRest = Base->WallSeconds - Base->TeacherSeconds;
  R.layer("trace.overhead_frac", (TracedRest - UntracedRest) / UntracedRest,
          "fraction");
  return T.writeChromeTrace(Options.WorkDir + "/" + TraceId +
                            ".replay.trace.json");
}

} // namespace perfbench
