//===- train/Trainer.cpp -------------------------------------------------------===//

#include "src/train/Trainer.h"

#include "src/nn/Loss.h"
#include "src/nn/Optimizer.h"
#include "src/support/Stopwatch.h"

#include <algorithm>
#include <thread>

using namespace wootz;

double wootz::evaluateAccuracy(const Graph &Network,
                               const std::string &InputNode,
                               const std::string &LogitsNode,
                               const Split &Test, int BatchSize,
                               int Threads) {
  const int Total = Test.exampleCount();
  assert(Total > 0 && "evaluating on an empty split");
  const int NumBatches = (Total + BatchSize - 1) / BatchSize;
  const int Shards = std::max(1, std::min(Threads, NumBatches));

  // Shard S walks batches S, S + Shards, S + 2*Shards, ... with the
  // serial loop's exact batch boundaries and scores them through a
  // private context over the shared read-only model. Correct counts are
  // integers, so their sum is independent of thread interleaving.
  std::vector<int> Correct(static_cast<size_t>(Shards), 0);
  auto scoreShard = [&](int S) {
    ExecContext Ctx(Network);
    std::vector<int> Indices;
    for (int B = S; B < NumBatches; B += Shards) {
      const int Begin = B * BatchSize;
      const int End = std::min(Begin + BatchSize, Total);
      Indices.clear();
      for (int I = Begin; I < End; ++I)
        Indices.push_back(I);
      Batch Eval = Test.gather(Indices);
      Ctx.setInput(InputNode, std::move(Eval.Images));
      Ctx.forward(Network, /*Training=*/false);
      const Tensor &Logits = Ctx.activation(LogitsNode);
      Correct[static_cast<size_t>(S)] += static_cast<int>(
          accuracyFromLogits(Logits, Eval.Labels) * Eval.Labels.size() +
          0.5);
    }
  };
  if (Shards == 1) {
    scoreShard(0);
  } else {
    std::vector<std::thread> Workers;
    Workers.reserve(static_cast<size_t>(Shards));
    for (int S = 0; S < Shards; ++S)
      Workers.emplace_back(scoreShard, S);
    for (std::thread &W : Workers)
      W.join();
  }
  int Sum = 0;
  for (int C : Correct)
    Sum += C;
  return static_cast<double>(Sum) / Total;
}

TrainResult wootz::trainClassifierDistilled(
    Graph &Student, const std::string &InputNode,
    const std::string &LogitsNode, Graph &Teacher,
    const std::string &TeacherInputNode,
    const std::string &TeacherLogitsNode, const Dataset &Data,
    const TrainMeta &Meta, int Steps, float LearningRate, float Alpha,
    float Temperature, Rng &Generator) {
  assert(Alpha >= 0.0f && Alpha <= 1.0f && "distillation weight in [0,1]");
  Stopwatch Timer;
  TrainResult Result;
  Result.InitialAccuracy = evaluateAccuracy(
      Student, InputNode, LogitsNode, Data.Test, 64, Meta.EvalThreads);
  Result.Curve.push_back({0, Result.InitialAccuracy});
  Result.FinalAccuracy = Result.InitialAccuracy;

  BatchSampler Sampler(Data.Train, Meta.BatchSize, Generator.fork());
  SgdOptimizer Optimizer(LearningRate, Meta.Momentum, Meta.WeightDecay);
  const std::vector<Param *> Params = Student.trainableParams();
  // One context per network for the whole run reuses the hot loop's
  // buffers across steps. The teacher may be shared by several
  // concurrent fine-tunes, so only its read-only parameters are shared.
  ExecContext StudentCtx(Student);
  ExecContext TeacherCtx(Teacher);
  Tensor GradHard;
  Tensor GradSoft;

  for (int Step = 1; Step <= Steps; ++Step) {
    if (Meta.LrDecayEvery > 0 && Step > 1 &&
        (Step - 1) % Meta.LrDecayEvery == 0)
      Optimizer.setLearningRate(Optimizer.learningRate() *
                                Meta.LrDecayFactor);
    Batch Mini = Sampler.next();
    // The teacher runs in evaluation mode: its soft targets must be
    // stable and its running statistics untouched. It copies the batch
    // (the student consumes it by move right after).
    TeacherCtx.setInput(TeacherInputNode, Mini.Images);
    TeacherCtx.forward(Teacher, /*Training=*/false);
    StudentCtx.setInput(InputNode, std::move(Mini.Images));
    StudentCtx.forward(Student, /*Training=*/true);

    Student.zeroGrads();
    const Tensor &StudentLogits = StudentCtx.activation(LogitsNode);
    softmaxCrossEntropy(StudentLogits, Mini.Labels, GradHard);
    distillationLoss(StudentLogits,
                     TeacherCtx.activation(TeacherLogitsNode), Temperature,
                     GradSoft);
    for (size_t I = 0; I < GradHard.size(); ++I)
      GradHard[I] = (1.0f - Alpha) * GradHard[I] + Alpha * GradSoft[I];
    StudentCtx.seedGradient(LogitsNode, GradHard);
    StudentCtx.backward(Student);
    Optimizer.step(Params);

    if (Step % Meta.EvalEvery == 0 || Step == Steps) {
      const double Accuracy = evaluateAccuracy(
          Student, InputNode, LogitsNode, Data.Test, 64, Meta.EvalThreads);
      Result.Curve.push_back({Step, Accuracy});
      if (Accuracy > Result.FinalAccuracy) {
        Result.FinalAccuracy = Accuracy;
        Result.StepsToBest = Step;
      } else if (Meta.EarlyStopPatience > 0 &&
                 Step - Result.StepsToBest >=
                     Meta.EarlyStopPatience * Meta.EvalEvery) {
        break;
      }
    }
  }
  Result.Seconds = Timer.seconds();
  return Result;
}

TrainResult wootz::trainClassifier(Graph &Network,
                                   const std::string &InputNode,
                                   const std::string &LogitsNode,
                                   const Dataset &Data,
                                   const TrainMeta &Meta, int Steps,
                                   float LearningRate, Rng &Generator) {
  Stopwatch Timer;
  TrainResult Result;
  Result.InitialAccuracy = evaluateAccuracy(
      Network, InputNode, LogitsNode, Data.Test, 64, Meta.EvalThreads);
  Result.Curve.push_back({0, Result.InitialAccuracy});
  Result.FinalAccuracy = Result.InitialAccuracy;
  Result.StepsToBest = 0;

  BatchSampler Sampler(Data.Train, Meta.BatchSize, Generator.fork());
  SgdOptimizer Optimizer(LearningRate, Meta.Momentum, Meta.WeightDecay);
  const std::vector<Param *> Params = Network.trainableParams();
  // One context for the whole run: buffer reuse across steps plus
  // move-in inputs.
  ExecContext Ctx(Network);
  Tensor GradLogits;

  for (int Step = 1; Step <= Steps; ++Step) {
    if (Meta.LrDecayEvery > 0 && Step > 1 &&
        (Step - 1) % Meta.LrDecayEvery == 0)
      Optimizer.setLearningRate(Optimizer.learningRate() *
                                Meta.LrDecayFactor);
    Batch Mini = Sampler.next();
    Ctx.setInput(InputNode, std::move(Mini.Images));
    Ctx.forward(Network, /*Training=*/true);
    Network.zeroGrads();
    softmaxCrossEntropy(Ctx.activation(LogitsNode), Mini.Labels,
                        GradLogits);
    Ctx.seedGradient(LogitsNode, GradLogits);
    Ctx.backward(Network);
    Optimizer.step(Params);

    if (Step % Meta.EvalEvery == 0 || Step == Steps) {
      const double Accuracy = evaluateAccuracy(
          Network, InputNode, LogitsNode, Data.Test, 64, Meta.EvalThreads);
      Result.Curve.push_back({Step, Accuracy});
      if (Accuracy > Result.FinalAccuracy) {
        Result.FinalAccuracy = Accuracy;
        Result.StepsToBest = Step;
      } else if (Meta.EarlyStopPatience > 0 &&
                 Step - Result.StepsToBest >=
                     Meta.EarlyStopPatience * Meta.EvalEvery) {
        // No improvement for the whole patience window: the network has
        // converged (block-trained ones get here in fewer steps).
        break;
      }
    }
  }
  Result.Seconds = Timer.seconds();
  return Result;
}
