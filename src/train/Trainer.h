//===- train/Trainer.h - Classifier training loop -----------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supervised training loop used for the full-model preparation, the
/// baseline ("default network") training, and the global fine-tuning of
/// block-trained networks. Records the accuracy curve (the data behind
/// Figure 6) including the *initial* accuracy, the paper's init / init+
/// metric.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TRAIN_TRAINER_H
#define WOOTZ_TRAIN_TRAINER_H

#include "src/compiler/Solver.h"
#include "src/data/Dataset.h"
#include "src/nn/Graph.h"

#include <string>
#include <vector>

namespace wootz {

/// One point of an accuracy-vs-steps curve.
struct AccuracyPoint {
  int Step = 0;
  double Accuracy = 0.0;
};

/// Outcome of a training run.
struct TrainResult {
  double InitialAccuracy = 0.0; ///< Test accuracy before any step.
  double FinalAccuracy = 0.0;   ///< Best test accuracy observed.
  std::vector<AccuracyPoint> Curve;
  double Seconds = 0.0; ///< Wall-clock training time.
  /// First step at which accuracy reached FinalAccuracy (convergence
  /// proxy used for the "reaches accuracy sooner" analyses).
  int StepsToBest = 0;
};

/// Test-set accuracy of \p Network's \p LogitsNode (evaluation mode),
/// scored through private ExecContexts over the shared read-only
/// \p Network. \p Threads > 1 strides the test batches across that many
/// worker threads, one context each. Batch boundaries are identical to
/// the serial loop's and each shard accumulates an integer correct
/// count, so the result is bit-identical for any thread count.
/// TrainMeta::EvalThreads (`eval_threads`) selects the shard count on
/// the pipeline's evaluation paths.
double evaluateAccuracy(const Graph &Network, const std::string &InputNode,
                        const std::string &LogitsNode, const Split &Test,
                        int BatchSize = 64, int Threads = 1);

/// Trains \p Network with softmax cross-entropy on \p Data for \p Steps
/// steps at learning rate \p LearningRate, evaluating every
/// \p Meta.EvalEvery steps. Only the graph's trainable parameters move.
TrainResult trainClassifier(Graph &Network, const std::string &InputNode,
                            const std::string &LogitsNode,
                            const Dataset &Data, const TrainMeta &Meta,
                            int Steps, float LearningRate, Rng &Generator);

/// Like trainClassifier(), but the loss blends hard labels with
/// knowledge distillation from \p Teacher (the trained full model):
/// (1 - Alpha) * crossEntropy + Alpha * distillation at \p Temperature.
/// The whole-network Teacher-Student variant the paper's §8 cites; with
/// Alpha = 0 it degenerates to trainClassifier().
TrainResult trainClassifierDistilled(
    Graph &Student, const std::string &InputNode,
    const std::string &LogitsNode, Graph &Teacher,
    const std::string &TeacherInputNode,
    const std::string &TeacherLogitsNode, const Dataset &Data,
    const TrainMeta &Meta, int Steps, float LearningRate, float Alpha,
    float Temperature, Rng &Generator);

} // namespace wootz

#endif // WOOTZ_TRAIN_TRAINER_H
