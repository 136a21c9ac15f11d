//===- tests/PipelineTest.cpp - runtime-scheduled pipeline tests ------------===//
//
// Exercises the pipeline on the runtime scheduler: Workers validation,
// telemetry capture, EvalOnly and Overlap agreeing bit for bit without a
// cancellation objective, and the Overlap schedule's two headline
// properties — block-ready overlap (a fine-tune starts before the last
// block group finishes) and frontier cancellation (once a configuration
// provably satisfies the objective, later evaluations are cancelled).
//
//===----------------------------------------------------------------------===//

#include "src/wootz/wootz.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace wootz;

namespace {

class RuntimePipelineFixture : public ::testing::Test {
protected:
  void SetUp() override {
    SyntheticSpec DataSpec;
    DataSpec.Classes = 4;
    DataSpec.TrainPerClass = 12;
    DataSpec.TestPerClass = 6;
    DataSpec.Noise = 0.5f;
    DataSpec.Seed = 13;
    Data = generateSynthetic(DataSpec);

    Result<ModelSpec> Parsed = makeStandardModel(StandardModel::ResNetA, 4);
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
    Spec = Parsed.take();
    ASSERT_GE(Spec.moduleCount(), 2);

    Meta.FullModelSteps = 40;
    Meta.PretrainSteps = 24;
    Meta.FinetuneSteps = 10;
    Meta.BatchSize = 8;
    Meta.EvalEvery = 10;

    // A crafted subspace over modules 0 and 1. Its per-module blocks are
    // m0@{0.3,0.5,0.7} and m1@{0.5,0.7}, which partition into three
    // groups: g0 = {m0@0.3, m1@0.5}, g1 = {m0@0.5, m1@0.7},
    // g2 = {m0@0.7}. The smallest configuration [0.7, 0.7, 0...] (the
    // exploration's position 0) composes blocks from g1 and g2 only — a
    // strict subset — so under Overlap its fine-tune can start while the
    // (heaviest, least-pruned) group g0 is still pre-training.
    auto Config = [&](float Rate0, float Rate1) {
      PruneConfig C(Spec.moduleCount(), 0.0f);
      C[0] = Rate0;
      C[1] = Rate1;
      return C;
    };
    Subspace = {Config(0.7f, 0.7f), Config(0.7f, 0.0f),
                Config(0.0f, 0.7f), Config(0.5f, 0.5f),
                Config(0.5f, 0.0f), Config(0.0f, 0.5f),
                Config(0.3f, 0.0f)};
  }

  Dataset Data;
  ModelSpec Spec;
  TrainMeta Meta;
  std::vector<PruneConfig> Subspace;
};

TEST_F(RuntimePipelineFixture, NegativeWorkersAreRejected) {
  PipelineOptions Options;
  Options.Workers = -1;
  Rng Generator(7);
  Result<PipelineResult> Run =
      runPruningPipeline(Spec, Data, Subspace, Meta, Options, Generator);
  ASSERT_FALSE(static_cast<bool>(Run));
  EXPECT_NE(Run.message().find("Workers"), std::string::npos);
}

TEST_F(RuntimePipelineFixture, ZeroWorkersMeansHardwareConcurrency) {
  PipelineOptions Options;
  Options.Workers = 0;
  Rng Generator(7);
  const std::vector<PruneConfig> Small(Subspace.begin(),
                                       Subspace.begin() + 2);
  Result<PipelineResult> Run =
      runPruningPipeline(Spec, Data, Small, Meta, Options, Generator);
  ASSERT_TRUE(static_cast<bool>(Run)) << Run.message();
  EXPECT_EQ(Run->Evaluations.size(), 2u);
}

TEST_F(RuntimePipelineFixture, EvalOnlyRunRecordsTelemetry) {
  PipelineOptions Options;
  Options.UseComposability = true;
  const std::string Path =
      ::testing::TempDir() + "wootz_pipeline_evalonly.jsonl";
  Options.TelemetryPath = Path;
  Rng Generator(21);
  Result<PipelineResult> Run =
      runPruningPipeline(Spec, Data, Subspace, Meta, Options, Generator);
  ASSERT_TRUE(static_cast<bool>(Run)) << Run.message();

  EXPECT_TRUE(Run->Telemetry.Measured);
  // One span per evaluation plus one per pre-trained block group.
  size_t EvalSpans = 0, PretrainSpans = 0;
  for (const SpanEvent &Span : Run->Telemetry.Spans) {
    EvalSpans += Span.Kind == "eval";
    PretrainSpans += Span.Kind == "pretrain";
  }
  EXPECT_EQ(EvalSpans, Subspace.size());
  EXPECT_EQ(PretrainSpans,
            static_cast<size_t>(Run->Pretrain.GroupCount));
  // Serial schedule: pre-training strictly precedes every evaluation.
  EXPECT_GE(Run->Telemetry.firstStart("eval"),
            Run->Telemetry.lastEnd("pretrain"));

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Contents;
  Contents << In.rdbuf();
  EXPECT_NE(Contents.str().find("\"type\":\"span\""), std::string::npos);
  EXPECT_NE(Contents.str().find("\"type\":\"counters\""),
            std::string::npos);
  std::remove(Path.c_str());
}

TEST_F(RuntimePipelineFixture, SchedulesAgreeWithoutCancellation) {
  // EvalOnly and Overlap differ only in when a configuration may start:
  // both draw one base seed for the block groups, partition them the
  // same way and pre-draw one seed per configuration. Without a
  // cancellation objective every configuration runs, so the two
  // schedules must agree bit for bit, for any worker count and either
  // way of choosing blocks. The identifier needs rate sequences that
  // recur across configurations to find multi-module blocks.
  ASSERT_GE(Spec.moduleCount(), 4);
  auto Config = [&](float R0, float R1, float R2, float R3) {
    PruneConfig C(Spec.moduleCount(), 0.0f);
    C[0] = R0;
    C[1] = R1;
    C[2] = R2;
    C[3] = R3;
    return C;
  };
  const std::vector<PruneConfig> Recurring = {
      Config(0.5f, 0.5f, 0.3f, 0.0f), Config(0.5f, 0.5f, 0.0f, 0.3f),
      Config(0.3f, 0.5f, 0.5f, 0.0f), Config(0.7f, 0.7f, 0.5f, 0.5f),
      Config(0.0f, 0.7f, 0.7f, 0.0f), Config(0.3f, 0.7f, 0.7f, 0.3f)};
  for (bool UseIdentifier : {false, true}) {
    const std::vector<PruneConfig> &Configs =
        UseIdentifier ? Recurring : Subspace;
    std::vector<PipelineResult> Runs;
    for (PipelineSchedule Schedule :
         {PipelineSchedule::EvalOnly, PipelineSchedule::Overlap})
      for (int Workers : {1, 4}) {
        PipelineOptions Options;
        Options.UseComposability = true;
        Options.UseIdentifier = UseIdentifier;
        Options.Schedule = Schedule;
        Options.Workers = Workers;
        Rng Generator(61);
        Result<PipelineResult> Run =
            runPruningPipeline(Spec, Data, Configs, Meta, Options, Generator);
        ASSERT_TRUE(static_cast<bool>(Run)) << Run.message();
        Runs.push_back(Run.take());
      }
    const PipelineResult &Reference = Runs.front();
    ASSERT_EQ(Reference.Evaluations.size(), Configs.size());
    ASSERT_GT(Reference.Pretrain.GroupCount, 1);
    if (UseIdentifier) {
      size_t MultiModule = 0;
      for (const TuningBlock &Block : Reference.Blocks)
        MultiModule += Block.moduleCount() > 1;
      ASSERT_GT(MultiModule, 0u);
    }
    for (size_t R = 1; R < Runs.size(); ++R) {
      SCOPED_TRACE("identifier " + std::to_string(UseIdentifier) +
                   ", run " + std::to_string(R));
      const PipelineResult &Run = Runs[R];
      EXPECT_EQ(Run.Pretrain.BlockCount, Reference.Pretrain.BlockCount);
      EXPECT_EQ(Run.Pretrain.GroupCount, Reference.Pretrain.GroupCount);
      EXPECT_EQ(Run.Pretrain.FirstLoss, Reference.Pretrain.FirstLoss);
      EXPECT_EQ(Run.Pretrain.LastLoss, Reference.Pretrain.LastLoss);
      ASSERT_EQ(Run.Evaluations.size(), Reference.Evaluations.size());
      for (size_t I = 0; I < Run.Evaluations.size(); ++I) {
        const EvaluatedConfig &A = Run.Evaluations[I];
        const EvaluatedConfig &B = Reference.Evaluations[I];
        EXPECT_FALSE(A.Cancelled) << "config " << I;
        EXPECT_EQ(A.Config, B.Config) << "config " << I;
        EXPECT_EQ(A.WeightCount, B.WeightCount) << "config " << I;
        EXPECT_EQ(A.InitAccuracy, B.InitAccuracy) << "config " << I;
        EXPECT_EQ(A.FinalAccuracy, B.FinalAccuracy) << "config " << I;
        EXPECT_EQ(A.StepsToBest, B.StepsToBest) << "config " << I;
      }
    }
  }
}

TEST_F(RuntimePipelineFixture, OverlapScheduleOverlapsAndCancels) {
  const PruningObjective Objective = smallestMeetingAccuracy(0.0);
  PipelineOptions Options;
  Options.UseComposability = true;
  Options.Schedule = PipelineSchedule::Overlap;
  Options.Workers = 2;
  Options.CancelObjective = &Objective;
  const std::string Path =
      ::testing::TempDir() + "wootz_pipeline_overlap.jsonl";
  Options.TelemetryPath = Path;

  Rng Generator(99);
  Result<PipelineResult> Run =
      runPruningPipeline(Spec, Data, Subspace, Meta, Options, Generator);
  ASSERT_TRUE(static_cast<bool>(Run)) << Run.message();
  ASSERT_EQ(Run->Evaluations.size(), Subspace.size());

  // (a) Block-ready overlap: some fine-tune started before the last
  // block group finished, visible in the span log.
  const double FirstEval = Run->Telemetry.firstStart("eval");
  const double LastPretrain = Run->Telemetry.lastEnd("pretrain");
  EXPECT_GT(LastPretrain, 0.0);
  EXPECT_LT(FirstEval, LastPretrain)
      << "no evaluation overlapped pre-training";

  // (b) Frontier cancellation: the smallest configuration satisfies the
  // (always-satisfiable) objective, so at least one later evaluation
  // must have been cancelled before it started.
  EXPECT_GE(Run->Telemetry.counter("tasks_cancelled"), 1);
  size_t CancelledEvals = 0;
  for (const EvaluatedConfig &E : Run->Evaluations)
    CancelledEvals += E.Cancelled;
  EXPECT_GE(CancelledEvals, 1u);

  // The winner is the smallest configuration; it ran to completion.
  const ExplorationSummary Summary =
      summarizeMeasuredRun(*Run, Objective);
  EXPECT_TRUE(Summary.Measured);
  EXPECT_EQ(Summary.WinnerIndex, 0);
  EXPECT_FALSE(Run->Evaluations[0].Cancelled);
  EXPECT_EQ(Run->Evaluations[0].Config, Subspace[0]);
  EXPECT_GT(Run->Evaluations[0].FinalAccuracy, 0.0);
  EXPECT_LT(Summary.ConfigsEvaluated,
            static_cast<int>(Subspace.size()));
  EXPECT_GT(Summary.Seconds, 0.0);
  EXPECT_GT(Summary.PretrainSeconds, 0.0);
  EXPECT_GT(Summary.OverheadFraction, 0.0);
  EXPECT_LT(Summary.OverheadFraction, 1.0);

  // The JSONL log landed on disk with spans and counters.
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Contents;
  Contents << In.rdbuf();
  EXPECT_NE(Contents.str().find("\"name\":\"eval:0\""),
            std::string::npos);
  EXPECT_NE(Contents.str().find("\"status\":\"cancelled\""),
            std::string::npos);
  std::remove(Path.c_str());

  // The report carries the measured-runtime section and marks cancelled
  // rows.
  const std::string Report = renderRunReport(*Run, Objective, 1);
  EXPECT_NE(Report.find("## Runtime (measured)"), std::string::npos);
  EXPECT_NE(Report.find("cancelled"), std::string::npos);
}

TEST_F(RuntimePipelineFixture, OverlapWinnerIsDeterministic) {
  const PruningObjective Objective = smallestMeetingAccuracy(0.0);
  auto RunOnce = [&]() {
    PipelineOptions Options;
    Options.UseComposability = true;
    Options.Schedule = PipelineSchedule::Overlap;
    Options.Workers = 2;
    Options.CancelObjective = &Objective;
    Rng Generator(424);
    Result<PipelineResult> Run =
        runPruningPipeline(Spec, Data, Subspace, Meta, Options, Generator);
    EXPECT_TRUE(static_cast<bool>(Run)) << Run.message();
    return Run.take();
  };
  const PipelineResult A = RunOnce();
  const PipelineResult B = RunOnce();
  // Which later evaluations get cancelled can vary with timing, but the
  // winner — and every configuration ahead of it in the exploration
  // order — is exactly reproducible: seeds are pre-drawn per task.
  const ExplorationSummary SummaryA = summarizeMeasuredRun(A, Objective);
  const ExplorationSummary SummaryB = summarizeMeasuredRun(B, Objective);
  ASSERT_EQ(SummaryA.WinnerIndex, 0);
  ASSERT_EQ(SummaryB.WinnerIndex, 0);
  EXPECT_EQ(A.Evaluations[0].Config, B.Evaluations[0].Config);
  EXPECT_DOUBLE_EQ(A.Evaluations[0].InitAccuracy,
                   B.Evaluations[0].InitAccuracy);
  EXPECT_DOUBLE_EQ(A.Evaluations[0].FinalAccuracy,
                   B.Evaluations[0].FinalAccuracy);
}

TEST_F(RuntimePipelineFixture, WarmBlockCacheSkipsAllPretraining) {
  // Two identical composability runs against one block-cache directory:
  // the first pre-trains and publishes every block, the second must
  // fetch them all (zero pending blocks, 100% cache.hit) and reproduce
  // the first run's evaluations exactly.
  const std::string CacheDir =
      ::testing::TempDir() + "wootz_pipeline_block_cache";
  std::filesystem::remove_all(CacheDir);

  PipelineOptions Options;
  Options.UseComposability = true;
  Options.BlockCacheConfig.Directory = CacheDir;
  const std::vector<PruneConfig> Small(Subspace.begin(),
                                       Subspace.begin() + 3);

  Rng ColdGenerator(11);
  Result<PipelineResult> Cold =
      runPruningPipeline(Spec, Data, Small, Meta, Options, ColdGenerator);
  ASSERT_TRUE(static_cast<bool>(Cold)) << Cold.message();
  ASSERT_GT(Cold->Pretrain.BlockCount, 0);
  const RunTelemetry ColdLog = Cold->Telemetry;
  EXPECT_EQ(ColdLog.counter("cache.hit"), 0);
  EXPECT_EQ(ColdLog.counter("cache.miss"), Cold->Pretrain.BlockCount);

  Rng WarmGenerator(11);
  Result<PipelineResult> Warm =
      runPruningPipeline(Spec, Data, Small, Meta, Options, WarmGenerator);
  ASSERT_TRUE(static_cast<bool>(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Pretrain.BlockCount, 0);
  EXPECT_EQ(Warm->Pretrain.GroupCount, 0);
  const RunTelemetry WarmLog = Warm->Telemetry;
  EXPECT_EQ(WarmLog.counter("cache.hit"), Cold->Pretrain.BlockCount);
  EXPECT_EQ(WarmLog.counter("cache.miss"), 0);
  EXPECT_EQ(WarmLog.counter("cache.corrupt"), 0);

  ASSERT_EQ(Warm->Evaluations.size(), Cold->Evaluations.size());
  for (size_t I = 0; I < Cold->Evaluations.size(); ++I) {
    EXPECT_DOUBLE_EQ(Warm->Evaluations[I].InitAccuracy,
                     Cold->Evaluations[I].InitAccuracy);
    EXPECT_DOUBLE_EQ(Warm->Evaluations[I].FinalAccuracy,
                     Cold->Evaluations[I].FinalAccuracy);
  }

  // A changed pre-training recipe addresses different cache entries:
  // everything misses, nothing wrong is reused.
  TrainMeta OtherMeta = Meta;
  OtherMeta.PretrainSteps += 4;
  Rng OtherGenerator(11);
  Result<PipelineResult> Other = runPruningPipeline(
      Spec, Data, Small, OtherMeta, Options, OtherGenerator);
  ASSERT_TRUE(static_cast<bool>(Other)) << Other.message();
  EXPECT_GT(Other->Pretrain.BlockCount, 0);
  EXPECT_EQ(Other->Telemetry.counter("cache.hit"), 0);

  std::filesystem::remove_all(CacheDir);
}

TEST_F(RuntimePipelineFixture, OverlapWarmBlockCacheSkipsAllPretraining) {
  // The same warm-run guarantee holds under the Overlap schedule, where
  // fetches happen while building the dependency graph and publishes
  // happen from concurrent group tasks.
  const std::string CacheDir =
      ::testing::TempDir() + "wootz_pipeline_block_cache_overlap";
  std::filesystem::remove_all(CacheDir);

  PipelineOptions Options;
  Options.UseComposability = true;
  Options.Schedule = PipelineSchedule::Overlap;
  Options.Workers = 2;
  Options.BlockCacheConfig.Directory = CacheDir;

  Rng ColdGenerator(11);
  Result<PipelineResult> Cold =
      runPruningPipeline(Spec, Data, Subspace, Meta, Options, ColdGenerator);
  ASSERT_TRUE(static_cast<bool>(Cold)) << Cold.message();
  ASSERT_GT(Cold->Pretrain.BlockCount, 0);

  Rng WarmGenerator(11);
  Result<PipelineResult> Warm =
      runPruningPipeline(Spec, Data, Subspace, Meta, Options, WarmGenerator);
  ASSERT_TRUE(static_cast<bool>(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Pretrain.BlockCount, 0);
  EXPECT_EQ(Warm->Telemetry.counter("cache.hit"),
            Cold->Pretrain.BlockCount);
  EXPECT_EQ(Warm->Telemetry.counter("cache.miss"), 0);

  // Group seeds derive from block ids, not from which groups actually
  // trained, so the warm run reproduces the cold run's evaluations.
  ASSERT_EQ(Warm->Evaluations.size(), Cold->Evaluations.size());
  for (size_t I = 0; I < Cold->Evaluations.size(); ++I)
    EXPECT_DOUBLE_EQ(Warm->Evaluations[I].FinalAccuracy,
                     Cold->Evaluations[I].FinalAccuracy);

  std::filesystem::remove_all(CacheDir);
}

TEST_F(RuntimePipelineFixture, PreCancelledTokenStopsBeforeAnyWork) {
  PipelineOptions Options;
  CancelToken Token;
  Token.cancel();
  Options.Cancel = &Token;
  Rng Generator(7);
  Result<PipelineResult> Run =
      runPruningPipeline(Spec, Data, Subspace, Meta, Options, Generator);
  ASSERT_FALSE(static_cast<bool>(Run));
  EXPECT_EQ(Run.message(), "job cancelled before it started");
}

TEST_F(RuntimePipelineFixture, MidRunCancelCascadesThroughTheGraph) {
  // The serve layer's DELETE /v1/jobs/:id path: a watcher flips the
  // shared token while the Overlap graph is running, and the pipeline
  // must come back with the fixed "job cancelled" message (how callers
  // tell an intentional abort from a real failure). The watcher waits
  // for the first completed task before cancelling, so at that point at
  // least seven of the ten graph tasks have not started yet — they poll
  // the token and abort, deterministically.
  PipelineOptions Options;
  Options.UseComposability = true;
  Options.Workers = 2;
  Options.Schedule = PipelineSchedule::Overlap;
  RunLog Log;
  Options.Log = &Log;
  CancelToken Token;
  Options.Cancel = &Token;

  std::thread Watcher([&] {
    while (Log.counters()["tasks_done"] < 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Token.cancel();
  });
  Rng Generator(7);
  Result<PipelineResult> Run =
      runPruningPipeline(Spec, Data, Subspace, Meta, Options, Generator);
  Watcher.join();
  ASSERT_FALSE(static_cast<bool>(Run));
  EXPECT_EQ(Run.message(), "job cancelled");
  // The scheduler observed the abort: something finished, something
  // failed (the task that saw the token), and the cascade cancelled the
  // rest rather than running it.
  const std::map<std::string, int64_t> Counters = Log.counters();
  EXPECT_GE(Counters.count("tasks_done") ? Counters.at("tasks_done") : 0,
            1);
  EXPECT_GE(Counters.count("tasks_failed") ? Counters.at("tasks_failed")
                                           : 0,
            1);
}

TEST_F(RuntimePipelineFixture, OverlapRunsWithDistillation) {
  // Historically rejected: concurrent fine-tunes shared the teacher
  // graph's activation buffers. After the model/context split each
  // fine-tune forwards the shared teacher through a private
  // ExecContext, so Overlap + distillation is a supported combination.
  PipelineOptions Options;
  Options.UseComposability = true;
  Options.Schedule = PipelineSchedule::Overlap;
  Options.Workers = 2;
  Options.DistillAlpha = 0.5f;
  Rng Generator(5);
  Result<PipelineResult> Run =
      runPruningPipeline(Spec, Data, Subspace, Meta, Options, Generator);
  ASSERT_TRUE(static_cast<bool>(Run)) << Run.message();
  ASSERT_EQ(Run->Evaluations.size(), Subspace.size());
  for (const EvaluatedConfig &E : Run->Evaluations) {
    EXPECT_FALSE(E.Cancelled);
    EXPECT_GT(E.WeightCount, 0u);
    EXPECT_GE(E.FinalAccuracy, 0.0);
  }
}

} // namespace
