//===- train/BlockCache.h - Cross-run pre-trained block cache ------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A crash-safe, content-addressed disk cache of pre-trained tuning
/// blocks. The paper's whole economic argument (§6.2) is that a tuning
/// block trains once and is reused by every configuration that contains
/// it; this cache extends that reuse *across runs*: a second exploration
/// over an overlapping subspace — or an Overlap-schedule run restarted
/// after a crash — skips pre-training for every block already on disk.
/// Iterative schemes that re-evaluate overlapping configurations
/// repeatedly (e.g. Molchanov et al.-style loops) amortize the same way.
///
/// Entries are addressed by the tuple (block id — which encodes the
/// module span and pruning rates —, teacher-model fingerprint, trainer
/// hyperparameter hash). The context fingerprints guarantee that a block
/// pre-trained against a different teacher or with different pre-training
/// hyperparameters can never be confused with the wanted one: the tuple
/// is hashed into the entry's file name, so a mismatch is simply a cache
/// miss. Note the deliberate asymmetry with CheckpointStore: the store
/// keys by block id alone (one run, one teacher), while the cache keys
/// by the full tuple (many runs, many teachers).
///
/// The entry code is the only code that persists trained weights: the
/// teacher cache (prepareFullModel) stores each trained full model as one
/// entry through fetchEntry()/publishEntry(), from a cache constructed
/// without a RunLog so teacher lookups never count as block hits/misses.
///
/// Crash safety: entries are WOOTZCK2 files (per-entry CRC32 + total
/// length) written via atomic temp+rename, so a reader sees either a
/// complete entry or none. Corrupt or truncated entries detected at load
/// are quarantined (renamed "<file>.corrupt"), counted, and treated as
/// misses — the pipeline re-trains instead of crashing.
///
/// Telemetry: when constructed with a RunLog, the cache bumps the
/// "cache.hit" / "cache.miss" / "cache.evicted" / "cache.corrupt"
/// counters and records one "cache.load:<id>" / "cache.save:<id>" span
/// per disk operation, so Table-3-style speedup runs can attribute the
/// time saved to reuse.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TRAIN_BLOCKCACHE_H
#define WOOTZ_TRAIN_BLOCKCACHE_H

#include "src/compiler/Solver.h"
#include "src/runtime/RunLog.h"
#include "src/train/CheckpointStore.h"

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

namespace wootz {

/// Knobs of the cross-run block cache.
struct CacheConfig {
  /// Cache directory; empty disables the cache entirely.
  std::string Directory;
  /// Total size cap in bytes over the directory's entries; when an
  /// insert pushes the total above the cap, the least-recently-used
  /// entries (by file mtime) are evicted. 0 means unlimited.
  uint64_t MaxBytes = 0;
  /// Serve hits but never write: no inserts, no eviction, and corrupt
  /// entries are reported but not quarantined. For sharing one cache
  /// directory between concurrent unprivileged readers.
  bool ReadOnly = false;
};

/// Counters of one BlockCache's lifetime (also mirrored into the RunLog
/// when one is attached).
struct BlockCacheStats {
  int64_t Hits = 0;
  int64_t Misses = 0;
  int64_t Evicted = 0;
  int64_t Corrupt = 0;
};

/// Content-addressed cross-run cache of pre-trained tuning blocks,
/// layered on top of CheckpointStore (memory) and the WOOTZCK2 format
/// (disk). Thread-safe: concurrent group-pretraining tasks publish and
/// fetch through one shared instance.
class BlockCache {
public:
  /// A disabled cache (every fetch misses, publishes are dropped).
  BlockCache() = default;

  explicit BlockCache(CacheConfig Config, RunLog *Log = nullptr)
      : Config(std::move(Config)), Log(Log) {}

  bool enabled() const { return !Config.Directory.empty(); }

  /// Binds the run context every entry key incorporates. Call once per
  /// run, after the teacher is trained and before any fetch/publish.
  void bindContext(uint64_t TeacherFingerprint, uint64_t MetaHash) {
    this->TeacherFingerprint = TeacherFingerprint;
    this->MetaHash = MetaHash;
  }

  /// A stable digest of the bound (teacher, hyperparameter) context —
  /// the part of every entry address that is not the block id. Two
  /// processes sharing a cache directory reuse each other's blocks
  /// exactly when their context ids match, which is what multi-process
  /// serving tests assert.
  uint64_t contextId() const {
    return TeacherFingerprint * 0x9e3779b97f4a7c15ull ^ MetaHash;
  }

  /// The on-disk path serving \p Key under the bound context.
  std::string entryPath(const std::string &Key) const;

  /// Tries to load \p BlockId from disk into \p Store (under the plain
  /// block id, ready for CheckpointStore::restore). Returns true on a
  /// hit. A corrupt entry is quarantined and counts as a miss.
  bool fetch(const std::string &BlockId, CheckpointStore &Store);

  /// Persists \p Store's bundle for \p BlockId to the cache, then
  /// applies the size cap. No-op success when disabled or read-only; a
  /// failed write is an Error (the trained block still lives in Store).
  Error publish(const std::string &BlockId, const CheckpointStore &Store);

  /// fetch() for any bundle: loads the entry for \p Key and hands it to
  /// \p Use, which returns false to reject it. Returns true on a hit. An
  /// entry that fails to decode or that \p Use rejects is quarantined
  /// and counts as a miss.
  bool fetchEntry(const std::string &Key,
                  const std::function<bool(TensorBundle &)> &Use);

  /// publish() for any bundle: persists \p Bundle as the entry for
  /// \p Key, then applies the size cap.
  Error publishEntry(const std::string &Key, const TensorBundle &Bundle);

  BlockCacheStats stats() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Counters;
  }

  /// Fingerprint of a trained teacher model: its state names, shapes,
  /// and strided samples of the weights. Two teachers that trained
  /// differently (or to different shapes) fingerprint differently.
  static uint64_t fingerprintTeacher(Graph &Teacher);

  /// Hash of the TrainMeta fields that affect what a pre-trained block
  /// contains (steps, learning rate, batch size, momentum, weight
  /// decay). Fields that only affect fine-tuning or scheduling are
  /// deliberately excluded so unrelated knob changes don't cold the
  /// cache.
  static uint64_t hashPretrainMeta(const TrainMeta &Meta);

  /// Hash of the TrainMeta fields that full-model (teacher) training
  /// reads: steps, learning rate and its decay, batch size, momentum,
  /// weight decay.
  static uint64_t hashTeacherMeta(const TrainMeta &Meta);

private:
  void bump(const char *Counter, int64_t BlockCacheStats::*Member);
  void recordSpan(const std::string &Name, double StartAt);
  void evictOverCap(const std::string &JustWritten);

  CacheConfig Config;
  RunLog *Log = nullptr;
  uint64_t TeacherFingerprint = 0;
  uint64_t MetaHash = 0;
  mutable std::mutex Mutex;
  BlockCacheStats Counters;
};

} // namespace wootz

#endif // WOOTZ_TRAIN_BLOCKCACHE_H
