//===- train/ModelZoo.h - Trained full-model preparation -----------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CNN pruning starts from a full model that "has typically already been
/// trained beforehand to perform well on the datasets of interest"
/// (§6.1). prepareFullModel() trains the full network on the dataset
/// (the stand-in for ImageNet pre-training + dataset adaptation) and can
/// cache the trained weights on disk so the many bench binaries don't
/// retrain the same sixteen (model, dataset) pairs. The cache is a
/// BlockCache directory: one atomic, CRC-checked entry per teacher holds
/// its weights and the generator state right after training.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TRAIN_MODELZOO_H
#define WOOTZ_TRAIN_MODELZOO_H

#include "src/compiler/Multiplexing.h"
#include "src/compiler/Solver.h"
#include "src/data/Dataset.h"
#include "src/train/Trainer.h"

namespace wootz {

/// A trained full model (nodes under prefix "full").
struct FullModel {
  Graph Network;
  std::string InputNode;
  std::string LogitsNode;
  double Accuracy = 0.0;
  double TrainSeconds = 0.0;
  bool FromCache = false;
};

/// Builds the full network for \p Model, trains it on \p Data for
/// \p Meta.FullModelSteps, and reports its test accuracy. When
/// \p CacheDir is non-empty, the trained teacher is loaded from / saved
/// to one BlockCache entry in it, addressed by the full model spec, the
/// dataset's fingerprint and BlockCache::hashTeacherMeta(\p Meta) (not by
/// \p Generator's seed). A hit restores \p Generator to the state the
/// training run left it in; an entry that does not fit is quarantined
/// and the teacher retrained.
Result<FullModel> prepareFullModel(const MultiplexingModel &Model,
                                   const Dataset &Data,
                                   const TrainMeta &Meta,
                                   const std::string &CacheDir,
                                   Rng &Generator);

} // namespace wootz

#endif // WOOTZ_TRAIN_MODELZOO_H
