//===- train/BlockCache.cpp -----------------------------------------------------===//

#include "src/train/BlockCache.h"

#include "src/support/Hash.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

using namespace wootz;

std::string BlockCache::entryPath(const std::string &Key) const {
  // The address is the full (key, teacher, hyperparameters) tuple: a
  // context change silently changes the file name, turning stale entries
  // into plain unused files rather than wrong hits.
  Fnv1a Address;
  Address.mix(Key)
      .mix(TeacherFingerprint)
      .mix(MetaHash);
  return Config.Directory + "/" + sanitizeCheckpointKey(Key) + "-" +
         toHex(Address.digest()) + ".ckpt";
}

void BlockCache::bump(const char *Counter,
                      int64_t BlockCacheStats::*Member) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Counters.*Member += 1;
  }
  if (Log)
    Log->bump(Counter);
}

void BlockCache::recordSpan(const std::string &Name, double StartAt) {
  if (!Log)
    return;
  SpanEvent Span;
  Span.Name = Name;
  Span.ReadyAt = StartAt;
  Span.StartAt = StartAt;
  Span.EndAt = Log->now();
  Log->record(std::move(Span));
}

bool BlockCache::fetch(const std::string &BlockId, CheckpointStore &Store) {
  return fetchEntry(BlockId, [&](TensorBundle &Bundle) {
    Store.insert(BlockId, std::move(Bundle));
    return true;
  });
}

bool BlockCache::fetchEntry(const std::string &Key,
                            const std::function<bool(TensorBundle &)> &Use) {
  if (!enabled())
    return false;
  const std::string Path = entryPath(Key);
  std::error_code FsError;
  if (!std::filesystem::exists(Path, FsError)) {
    bump("cache.miss", &BlockCacheStats::Misses);
    return false;
  }
  const double StartAt = Log ? Log->now() : 0.0;
  Result<TensorBundle> Bundle = loadTensors(Path);
  if (!Bundle || !Use(*Bundle)) {
    // Detected corruption (truncation, CRC failure, bad sizes, contents
    // that Use rejects): move the entry out of the address space so the
    // re-trained replacement can take its place, and keep the evidence
    // for post-mortems.
    if (!Config.ReadOnly)
      std::filesystem::rename(Path, Path + ".corrupt", FsError);
    bump("cache.corrupt", &BlockCacheStats::Corrupt);
    bump("cache.miss", &BlockCacheStats::Misses);
    return false;
  }
  // Refresh the entry's LRU position: eviction is by mtime, and a hit
  // makes the entry recently used.
  std::filesystem::last_write_time(
      Path, std::filesystem::file_time_type::clock::now(), FsError);
  bump("cache.hit", &BlockCacheStats::Hits);
  recordSpan("cache.load:" + Key, StartAt);
  return true;
}

Error BlockCache::publish(const std::string &BlockId,
                          const CheckpointStore &Store) {
  if (!enabled() || Config.ReadOnly)
    return Error::success();
  Result<TensorBundle> Bundle = Store.bundleCopy(BlockId);
  if (!Bundle)
    return Bundle.takeError();
  return publishEntry(BlockId, *Bundle);
}

Error BlockCache::publishEntry(const std::string &Key,
                               const TensorBundle &Bundle) {
  if (!enabled() || Config.ReadOnly)
    return Error::success();
  std::error_code FsError;
  std::filesystem::create_directories(Config.Directory, FsError);
  if (FsError)
    return Error::failure("cannot create block cache directory '" +
                          Config.Directory + "'");
  const double StartAt = Log ? Log->now() : 0.0;
  const std::string Path = entryPath(Key);
  if (Error E = saveTensors(Path, Bundle))
    return E;
  recordSpan("cache.save:" + Key, StartAt);
  if (Config.MaxBytes > 0)
    evictOverCap(Path);
  return Error::success();
}

void BlockCache::evictOverCap(const std::string &JustWritten) {
  // Scan-and-evict runs under the lock so concurrent publishers don't
  // double-delete; the file operations themselves tolerate races with
  // external processes (errors are ignored, the next insert re-scans).
  std::lock_guard<std::mutex> Lock(Mutex);
  struct EntryFile {
    std::filesystem::path Path;
    std::filesystem::file_time_type MTime;
    uint64_t Bytes = 0;
  };
  std::vector<EntryFile> Entries;
  uint64_t TotalBytes = 0;
  std::error_code FsError;
  for (const auto &DirEntry :
       std::filesystem::directory_iterator(Config.Directory, FsError)) {
    if (FsError)
      return;
    if (DirEntry.path().extension() != ".ckpt")
      continue;
    EntryFile Entry;
    Entry.Path = DirEntry.path();
    Entry.MTime = DirEntry.last_write_time(FsError);
    if (FsError)
      continue;
    Entry.Bytes = DirEntry.file_size(FsError);
    if (FsError)
      continue;
    TotalBytes += Entry.Bytes;
    Entries.push_back(std::move(Entry));
  }
  std::sort(Entries.begin(), Entries.end(),
            [](const EntryFile &A, const EntryFile &B) {
              return A.MTime < B.MTime;
            });
  for (const EntryFile &Entry : Entries) {
    if (TotalBytes <= Config.MaxBytes)
      break;
    // Never evict the entry that triggered the scan: an entry larger
    // than the whole cap would otherwise evict itself, and the cache
    // must at least hold the current run's newest block.
    if (Entry.Path.string() == JustWritten)
      continue;
    if (std::filesystem::remove(Entry.Path, FsError) && !FsError) {
      TotalBytes -= Entry.Bytes;
      Counters.Evicted += 1;
      if (Log)
        Log->bump("cache.evicted");
    }
  }
}

uint64_t BlockCache::fingerprintTeacher(Graph &Teacher) {
  Fnv1a Print;
  for (const auto &[Name, State] : Teacher.namedState()) {
    Print.mix(Name);
    const Tensor &Value = State->Value;
    for (int Axis = 0; Axis < Value.shape().rank(); ++Axis)
      Print.mix(static_cast<int64_t>(Value.shape()[Axis]));
    // Strided samples instead of every weight: the fingerprint runs once
    // per pipeline, but teachers can be large. Any training difference
    // perturbs essentially all weights, so samples catch it.
    const size_t Stride = Value.size() / 64 + 1;
    for (size_t I = 0; I < Value.size(); I += Stride)
      Print.mix(Value[I]);
  }
  return Print.digest();
}

uint64_t BlockCache::hashPretrainMeta(const TrainMeta &Meta) {
  return Fnv1a()
      .mix(Meta.PretrainSteps)
      .mix(Meta.PretrainLearningRate)
      .mix(Meta.BatchSize)
      .mix(Meta.Momentum)
      .mix(Meta.WeightDecay)
      .digest();
}

uint64_t BlockCache::hashTeacherMeta(const TrainMeta &Meta) {
  // Exactly what full-model training reads. Early stopping is forced off
  // there, so the evaluation cadence never changes the weights.
  return Fnv1a()
      .mix(Meta.FullModelSteps)
      .mix(Meta.FullModelLearningRate)
      .mix(Meta.BatchSize)
      .mix(Meta.Momentum)
      .mix(Meta.WeightDecay)
      .mix(Meta.LrDecayEvery)
      .mix(Meta.LrDecayFactor)
      .digest();
}
