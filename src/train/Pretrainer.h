//===- train/Pretrainer.h - Teacher-Student block pre-training -----------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The local training phase of composability-based pruning (§6.1): each
/// pruned tuning block trains against the trained full model's activation
/// maps (min ||O - O'||^2), with only the block's parameters updated.
/// Blocks are partitioned into non-overlapping groups (§6.2) and each
/// group trains concurrently against one teacher execution per step —
/// the teacher's activations are computed once and reused by all blocks
/// of the group, exactly the reuse Figure 5(b) describes.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TRAIN_PRETRAINER_H
#define WOOTZ_TRAIN_PRETRAINER_H

#include "src/compiler/NetsFactory.h"
#include "src/compiler/Solver.h"
#include "src/data/Dataset.h"
#include "src/pruning/Importance.h"
#include "src/train/BlockCache.h"
#include "src/train/CheckpointStore.h"

namespace wootz {

/// Cost accounting of an exploration run's block pre-training.
struct PretrainStats {
  int BlockCount = 0;
  int GroupCount = 0;
  /// Pre-training seconds: the sum of the trained groups' seconds.
  double Seconds = 0.0;
  /// Wall-clock seconds per group, for the multi-node schedule
  /// simulation (groups are distributed round-robin over nodes).
  std::vector<double> GroupSeconds;
  /// Mean reconstruction loss per block at the first and last step, for
  /// verifying the blocks actually learned.
  double FirstLoss = 0.0;
  double LastLoss = 0.0;
};

/// Per-group cost and loss accounting from pretrainGroup().
struct GroupPretrainStats {
  double Seconds = 0.0;
  /// Mean reconstruction loss over the group's blocks at the first and
  /// last training step.
  double FirstLoss = 0.0;
  double LastLoss = 0.0;
};

/// Pre-trains one non-overlapping block group against the teacher
/// \p FullTrained (nodes "<FullPrefix>/...") and captures each trained
/// block into \p Store under its canonical id. This is the unit the
/// runtime scheduler dispatches: groups only read the teacher and only
/// write distinct store keys, so distinct groups may train concurrently
/// (each with its own \p Generator). The caller is responsible for
/// filtering out identity and already-stored blocks (pendingBlockGroups()
/// does both). Each block starts from its inherited slice of the teacher,
/// ranked by \p Scores when given, by l1 norms otherwise. When \p Cache is
/// given, each freshly trained block is also published to the cross-run
/// cache (publish failures are non-fatal — the block lives in \p Store
/// regardless).
Result<GroupPretrainStats>
pretrainGroup(const MultiplexingModel &Model, Graph &FullTrained,
              const std::string &FullPrefix,
              const std::vector<TuningBlock> &Group, const Dataset &Data,
              const TrainMeta &Meta, CheckpointStore &Store,
              Rng &Generator, const FilterScores *Scores = nullptr,
              BlockCache *Cache = nullptr);

/// Derives the training seed of one block group from a base draw: a
/// hash of \p BaseSeed and the group's block ids. Because the seed
/// depends only on the group's contents (not on how many other groups
/// train, or trained before it), a group produces bit-identical weights
/// whether the surrounding run is cold, warm, or resumed mid-way with
/// some groups already cached.
uint64_t pretrainGroupSeed(uint64_t BaseSeed,
                           const std::vector<TuningBlock> &Group);

/// The block groups a run still has to pre-train, each with its seed.
struct PendingGroups {
  /// Non-overlapping groups, in partitionIntoGroups() order.
  std::vector<std::vector<TuningBlock>> Groups;
  /// Seeds[G] is pretrainGroupSeed(BaseSeed, Groups[G]).
  std::vector<uint64_t> Seeds;
  int BlockCount = 0; ///< Blocks across all groups.
};

/// Selects what \p Blocks still needs pre-training and seeds it: identity
/// blocks reuse the teacher's weights, blocks already in \p Store are
/// shared (the cross-network reuse the paper banks on), and blocks found
/// in \p Cache load from disk into \p Store instead of training. The
/// rest is partitioned into groups, each seeded from \p BaseSeed.
PendingGroups pendingBlockGroups(const std::vector<TuningBlock> &Blocks,
                                 CheckpointStore &Store, BlockCache *Cache,
                                 uint64_t BaseSeed);

} // namespace wootz

#endif // WOOTZ_TRAIN_PRETRAINER_H
