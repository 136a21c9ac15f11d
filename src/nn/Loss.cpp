//===- nn/Loss.cpp ---------------------------------------------------------===//

#include "src/nn/Loss.h"

#include "src/tensor/Ops.h"

#include <cassert>
#include <cmath>

using namespace wootz;

double wootz::softmaxCrossEntropy(const Tensor &Logits,
                                  const std::vector<int> &Labels,
                                  Tensor &GradLogits) {
  assert(Logits.shape().rank() == 2 && "logits must be [batch, classes]");
  const int Batch = Logits.shape()[0];
  const int Classes = Logits.shape()[1];
  assert(static_cast<int>(Labels.size()) == Batch &&
         "label count must match the batch");
  if (GradLogits.shape() != Logits.shape() || GradLogits.empty())
    GradLogits = Tensor(Logits.shape());

  double TotalLoss = 0.0;
  const float InvBatch = 1.0f / static_cast<float>(Batch);
  for (int N = 0; N < Batch; ++N) {
    const float *Row = Logits.data() + static_cast<size_t>(N) * Classes;
    float *GradRow = GradLogits.data() + static_cast<size_t>(N) * Classes;
    // Numerically stable softmax: shift by the row maximum.
    float MaxLogit = Row[0];
    for (int C = 1; C < Classes; ++C)
      MaxLogit = std::max(MaxLogit, Row[C]);
    double Denominator = 0.0;
    for (int C = 0; C < Classes; ++C)
      Denominator += std::exp(static_cast<double>(Row[C]) - MaxLogit);
    const int Label = Labels[N];
    assert(Label >= 0 && Label < Classes && "label out of range");
    TotalLoss -= (static_cast<double>(Row[Label]) - MaxLogit -
                  std::log(Denominator));
    for (int C = 0; C < Classes; ++C) {
      const double Probability =
          std::exp(static_cast<double>(Row[C]) - MaxLogit) / Denominator;
      GradRow[C] = static_cast<float>(Probability) * InvBatch;
    }
    GradRow[Label] -= InvBatch;
  }
  return TotalLoss / Batch;
}

double wootz::accuracyFromLogits(const Tensor &Logits,
                                 const std::vector<int> &Labels) {
  assert(Logits.shape().rank() == 2 && "logits must be [batch, classes]");
  const int Batch = Logits.shape()[0];
  const int Classes = Logits.shape()[1];
  int Correct = 0;
  for (int N = 0; N < Batch; ++N)
    if (argmax(Logits.data() + static_cast<size_t>(N) * Classes, Classes) ==
        Labels[N])
      ++Correct;
  return static_cast<double>(Correct) / Batch;
}

/// Row-wise softmax at a temperature (numerically stabilized).
static void softmaxRows(const Tensor &Logits, float Temperature,
                        std::vector<double> &Probabilities) {
  const int Batch = Logits.shape()[0];
  const int Classes = Logits.shape()[1];
  Probabilities.resize(static_cast<size_t>(Batch) * Classes);
  for (int N = 0; N < Batch; ++N) {
    const float *Row = Logits.data() + static_cast<size_t>(N) * Classes;
    double MaxLogit = Row[0];
    for (int C = 1; C < Classes; ++C)
      MaxLogit = std::max(MaxLogit, static_cast<double>(Row[C]));
    double Denominator = 0.0;
    for (int C = 0; C < Classes; ++C)
      Denominator += std::exp((Row[C] - MaxLogit) / Temperature);
    for (int C = 0; C < Classes; ++C)
      Probabilities[static_cast<size_t>(N) * Classes + C] =
          std::exp((Row[C] - MaxLogit) / Temperature) / Denominator;
  }
}

double wootz::distillationLoss(const Tensor &StudentLogits,
                               const Tensor &TeacherLogits,
                               float Temperature, Tensor &GradStudent) {
  assert(StudentLogits.shape() == TeacherLogits.shape() &&
         StudentLogits.shape().rank() == 2 &&
         "distillation needs matching [batch, classes] logits");
  assert(Temperature > 0.0f && "temperature must be positive");
  const int Batch = StudentLogits.shape()[0];
  if (GradStudent.shape() != StudentLogits.shape() || GradStudent.empty())
    GradStudent = Tensor(StudentLogits.shape());

  std::vector<double> StudentProb;
  std::vector<double> TeacherProb;
  softmaxRows(StudentLogits, Temperature, StudentProb);
  softmaxRows(TeacherLogits, Temperature, TeacherProb);

  // Loss = T^2 * mean_n sum_c p_t(c) * (log p_t(c) - log p_s(c));
  // dLoss/ds = T * (p_s - p_t) / batch.
  double TotalLoss = 0.0;
  const double T2 = static_cast<double>(Temperature) * Temperature;
  const float GradScale = Temperature / static_cast<float>(Batch);
  for (size_t I = 0; I < StudentProb.size(); ++I) {
    if (TeacherProb[I] > 1e-12)
      TotalLoss +=
          TeacherProb[I] * (std::log(TeacherProb[I]) -
                            std::log(std::max(StudentProb[I], 1e-12)));
    GradStudent[I] = GradScale * static_cast<float>(StudentProb[I] -
                                                    TeacherProb[I]);
  }
  return T2 * TotalLoss / Batch;
}

double wootz::l2Reconstruction(const Tensor &Pred, const Tensor &Target,
                               Tensor &GradPred) {
  assert(Pred.shape() == Target.shape() &&
         "reconstruction loss requires matching shapes");
  if (GradPred.shape() != Pred.shape() || GradPred.empty())
    GradPred = Tensor(Pred.shape());
  const size_t Count = Pred.size();
  const float InvCount = 1.0f / static_cast<float>(Count);
  double TotalLoss = 0.0;
  for (size_t I = 0; I < Count; ++I) {
    const float Diff = Pred[I] - Target[I];
    TotalLoss += 0.5 * static_cast<double>(Diff) * Diff;
    GradPred[I] = Diff * InvCount;
  }
  return TotalLoss / static_cast<double>(Count);
}
