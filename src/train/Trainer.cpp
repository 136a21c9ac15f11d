//===- train/Trainer.cpp -------------------------------------------------------===//

#include "src/train/Trainer.h"

#include "src/nn/Loss.h"
#include "src/nn/Optimizer.h"
#include "src/support/Stopwatch.h"

#include <algorithm>
#include <optional>
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

namespace {
/// The teacher side of a distilled fine-tune.
struct Distillation {
  Graph &Teacher;
  const std::string &InputNode;
  const std::string &LogitsNode;
  float Alpha;
  float Temperature;
};

/// The one training loop: sampler, SGD with step LR decay, periodic
/// evaluation and early stop. With \p Distill the loss gradient blends
/// the hard labels with the teacher's soft targets.
TrainResult trainLoop(Graph &Network, const std::string &InputNode,
                      const std::string &LogitsNode,
                      const Distillation *Distill, const Dataset &Data,
                      const TrainMeta &Meta, int Steps, float LearningRate,
                      Rng &Generator) {
  Stopwatch Timer;
  TrainResult Result;
  Result.InitialAccuracy = evaluateAccuracy(
      Network, InputNode, LogitsNode, Data.Test, 64, Meta.EvalThreads);
  Result.Curve.push_back({0, Result.InitialAccuracy});
  Result.FinalAccuracy = Result.InitialAccuracy;

  BatchSampler Sampler(Data.Train, Meta.BatchSize, Generator.fork());
  SgdOptimizer Optimizer(LearningRate, Meta.Momentum, Meta.WeightDecay);
  const std::vector<Param *> Params = Network.trainableParams();
  // One context per network for the whole run: buffer reuse across
  // steps plus move-in inputs. The teacher may be shared by several
  // concurrent fine-tunes, so only its read-only parameters are shared.
  ExecContext Ctx(Network);
  std::optional<ExecContext> TeacherCtx;
  if (Distill)
    TeacherCtx.emplace(Distill->Teacher);
  Tensor GradLogits;
  Tensor GradSoft;

  for (int Step = 1; Step <= Steps; ++Step) {
    if (Meta.LrDecayEvery > 0 && Step > 1 &&
        (Step - 1) % Meta.LrDecayEvery == 0)
      Optimizer.setLearningRate(Optimizer.learningRate() *
                                Meta.LrDecayFactor);
    Batch Mini = Sampler.next();
    if (Distill) {
      // The teacher runs in evaluation mode: its soft targets must be
      // stable and its running statistics untouched. It copies the batch
      // (the student consumes it by move right after).
      TeacherCtx->setInput(Distill->InputNode, Mini.Images);
      TeacherCtx->forward(Distill->Teacher, /*Training=*/false);
    }
    Ctx.setInput(InputNode, std::move(Mini.Images));
    Ctx.forward(Network, /*Training=*/true);
    Network.zeroGrads();
    const Tensor &Logits = Ctx.activation(LogitsNode);
    softmaxCrossEntropy(Logits, Mini.Labels, GradLogits);
    if (Distill) {
      distillationLoss(Logits, TeacherCtx->activation(Distill->LogitsNode),
                       Distill->Temperature, GradSoft);
      const float Alpha = Distill->Alpha;
      for (size_t I = 0; I < GradLogits.size(); ++I)
        GradLogits[I] = (1.0f - Alpha) * GradLogits[I] + Alpha * GradSoft[I];
    }
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
} // namespace

TrainResult wootz::trainClassifierDistilled(
    Graph &Student, const std::string &InputNode,
    const std::string &LogitsNode, Graph &Teacher,
    const std::string &TeacherInputNode,
    const std::string &TeacherLogitsNode, const Dataset &Data,
    const TrainMeta &Meta, int Steps, float LearningRate, float Alpha,
    float Temperature, Rng &Generator) {
  assert(Alpha >= 0.0f && Alpha <= 1.0f && "distillation weight in [0,1]");
  const Distillation Distill{Teacher, TeacherInputNode, TeacherLogitsNode,
                             Alpha, Temperature};
  return trainLoop(Student, InputNode, LogitsNode, &Distill, Data, Meta,
                   Steps, LearningRate, Generator);
}

TrainResult wootz::trainClassifier(Graph &Network,
                                   const std::string &InputNode,
                                   const std::string &LogitsNode,
                                   const Dataset &Data,
                                   const TrainMeta &Meta, int Steps,
                                   float LearningRate, Rng &Generator) {
  return trainLoop(Network, InputNode, LogitsNode, nullptr, Data, Meta,
                   Steps, LearningRate, Generator);
}
