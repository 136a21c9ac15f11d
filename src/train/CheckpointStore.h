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
/// another. The store works purely in memory and can mirror itself to a
/// directory on disk: one atomic-renamed WOOTZCK2 file per bundle plus a
/// versioned JSON manifest ("MANIFEST.json", one object per line)
/// mapping keys to files.
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

/// How CheckpointStore::loadFrom treats the bundles already in memory.
enum class CheckpointLoadMode {
  /// Keep existing bundles; loaded keys overwrite same-named ones.
  Merge,
  /// Drop every in-memory bundle first, so the store ends up holding
  /// exactly what the directory held.
  Replace,
};

/// What one loadFrom() call actually did. Unreadable or corrupt entries
/// do not abort the load — they are skipped and reported here so the
/// caller can re-train exactly the missing blocks.
struct CheckpointLoadReport {
  int Loaded = 0;
  /// One "key: reason" diagnostic per entry that failed to load.
  std::vector<std::string> EntryErrors;
};

/// In-memory (optionally disk-backed) block checkpoint store.
class CheckpointStore {
public:
  /// Captures the state of \p Layers (spec-relative names) from
  /// \p Source's nodes "<Prefix>/<layer>" and stores it under \p Key.
  void capture(const std::string &Key, Graph &Source,
               const std::string &Prefix,
               const std::vector<std::string> &Layers);

  /// Stores \p Bundle directly under \p Key (what the block cache and
  /// the disk loader use; capture() is the graph-sourced equivalent).
  void insert(const std::string &Key, TensorBundle Bundle);

  /// Restores a stored bundle into \p Target's nodes "<Prefix>/<layer>".
  /// Missing target nodes are skipped; shape mismatches, malformed entry
  /// names, and out-of-range state indices are recoverable errors (a
  /// bundle loaded from a foreign or corrupt directory must never index
  /// out of bounds).
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

  /// Writes every bundle to "<Directory>/<file name from
  /// checkpointFileName()>" (atomically, one temp+rename per file) plus
  /// a MANIFEST.json mapping keys to files.
  Error saveTo(const std::string &Directory) const;

  /// Loads the bundles listed in "<Directory>/MANIFEST.json". A failure
  /// Result means the manifest itself was unreadable; per-entry failures
  /// (missing, truncated, corrupt files) are accumulated in the report
  /// instead of aborting the load.
  Result<CheckpointLoadReport>
  loadFrom(const std::string &Directory,
           CheckpointLoadMode Mode = CheckpointLoadMode::Merge);

private:
  mutable std::mutex Mutex;
  std::map<std::string, TensorBundle> Bundles;
};

/// Filesystem-safe form of a checkpoint key: unsafe characters are
/// replaced, and a short hash of the *original* key is appended so keys
/// differing only in replaced characters (e.g. "b|a" vs "b:a") can never
/// collide on one file.
std::string sanitizeCheckpointKey(const std::string &Key);

/// The on-disk file name saveTo() uses for \p Key.
std::string checkpointFileName(const std::string &Key);

} // namespace wootz

#endif // WOOTZ_TRAIN_CHECKPOINTSTORE_H
