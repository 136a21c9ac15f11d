//===- train/CheckpointStore.h - Pre-trained block storage ---------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage for pre-trained tuning blocks — the stand-in for the paper's
/// TensorFlow checkpoints ("Executing the wrapper produces pre-trained
/// tuning blocks that are stored as TensorFlow checkpoints. The mapping
/// between the checkpoint files and trained tuning blocks are also
/// recorded for the model variable initialization in the global
/// fine-tuning phase", §6.2).
///
/// Bundles are keyed by the block's canonical id; tensor keys inside a
/// bundle are "<layer>/s<K>" (layer state index K), independent of any
/// particular graph prefix so a block trains in one graph and loads into
/// another. The store works purely in memory; the one on-disk layout for
/// trained weights is BlockCache's entries (one atomic WOOTZCK2 file per
/// block, its address recording which file holds which block).
///
/// The store is thread-safe: block groups pre-trained concurrently by the
/// runtime scheduler capture into one shared store, and fine-tune tasks
/// restore from it while later groups are still writing.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TRAIN_CHECKPOINTSTORE_H
#define WOOTZ_TRAIN_CHECKPOINTSTORE_H

#include "src/nn/Graph.h"
#include "src/nn/Serialize.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace wootz {

/// In-memory block checkpoint store.
class CheckpointStore {
public:
  /// Captures the state of \p Layers (spec-relative names) from
  /// \p Source's nodes "<Prefix>/<layer>" and stores it under \p Key.
  void capture(const std::string &Key, Graph &Source,
               const std::string &Prefix,
               const std::vector<std::string> &Layers);

  /// Stores \p Bundle directly under \p Key (what the block cache
  /// uses; capture() is the graph-sourced equivalent).
  void insert(const std::string &Key, TensorBundle Bundle);

  /// Restores a stored bundle into \p Target's nodes "<Prefix>/<layer>".
  /// Missing target nodes are skipped; shape mismatches, malformed entry
  /// names, and out-of-range state indices are recoverable errors (a
  /// bundle loaded from a foreign or corrupt cache entry must never
  /// index out of bounds).
  Error restore(const std::string &Key, Graph &Target,
                const std::string &Prefix) const;

  bool contains(const std::string &Key) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Bundles.count(Key) != 0;
  }

  /// A copy of the bundle stored under \p Key.
  Result<TensorBundle> bundleCopy(const std::string &Key) const;

  /// Stored keys in lexicographic order.
  std::vector<std::string> keys() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, TensorBundle> Bundles;
};

/// Filesystem-safe form of a checkpoint key: unsafe characters are
/// replaced, and a short hash of the *original* key is appended so keys
/// differing only in replaced characters (e.g. "b|a" vs "b:a") can never
/// collide on one file.
std::string sanitizeCheckpointKey(const std::string &Key);

} // namespace wootz

#endif // WOOTZ_TRAIN_CHECKPOINTSTORE_H
