//===- tests/PersistenceTest.cpp - checkpoint persistence hardening ----------===//
//
// The crash-safety and corruption-tolerance contract of the persistence
// layer: a WOOTZCK2 checkpoint truncated at any offset or with any byte
// flipped parses to a clean Error (never a crash or a huge allocation),
// so does the legacy format, saves are atomic under the final name even
// with two writing processes, and the cross-run BlockCache turns all of
// it into hits, misses, quarantines, and LRU evictions.
//
//===----------------------------------------------------------------------===//

#include "src/support/File.h"
#include "src/support/Hash.h"
#include "src/support/Json.h"
#include "src/train/BlockCache.h"
#include "src/train/CheckpointStore.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace wootz;

namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory that cleans up after itself.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name)
      : Path((fs::temp_directory_path() / Name).string()) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ignored;
    fs::remove_all(Path, Ignored);
  }
  const std::string &str() const { return Path; }
  std::string file(const std::string &Name) const {
    return Path + "/" + Name;
  }

private:
  std::string Path;
};

TensorBundle smallBundle() {
  TensorBundle Bundle;
  Bundle["conv/s0"] = Tensor(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Bundle["conv/s1"] = Tensor(Shape{2}, {0.5f, -0.5f});
  Bundle["bn/s0"] = Tensor(Shape{1, 2, 1, 1}, {7.0f, 8.0f});
  return Bundle;
}

bool bundlesEqual(const TensorBundle &A, const TensorBundle &B) {
  if (A.size() != B.size())
    return false;
  for (const auto &[Name, Value] : A) {
    auto It = B.find(Name);
    if (It == B.end() || It->second.shape() != Value.shape())
      return false;
    for (size_t I = 0; I < Value.size(); ++I)
      if (Value[I] != It->second[I])
        return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// CheckpointFormat: fuzz-ish corruption corpus
//===----------------------------------------------------------------------===//

TEST(CheckpointFormatTest, V2RoundTrip) {
  const std::string Bytes = serializeTensors(smallBundle());
  ASSERT_EQ(Bytes.substr(0, 8), "WOOTZCK2");
  Result<TensorBundle> Loaded = deserializeTensors(Bytes);
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.message();
  EXPECT_TRUE(bundlesEqual(smallBundle(), *Loaded));
}

TEST(CheckpointFormatTest, TruncationAtEveryOffsetIsACleanError) {
  const std::string Bytes = serializeTensors(smallBundle());
  for (size_t Length = 0; Length < Bytes.size(); ++Length) {
    Result<TensorBundle> Loaded =
        deserializeTensors(Bytes.substr(0, Length));
    EXPECT_FALSE(static_cast<bool>(Loaded))
        << "truncation to " << Length << " of " << Bytes.size()
        << " bytes was accepted";
  }
}

TEST(CheckpointFormatTest, Everysingle_ByteFlipIsACleanError) {
  // The CRC32 covers each whole entry record and the header carries
  // the total length, so no single-byte flip anywhere in the file may
  // survive: not in the magic, the counts, a name, a shape, or the
  // payload.
  const std::string Pristine = serializeTensors(smallBundle());
  for (size_t Offset = 0; Offset < Pristine.size(); ++Offset) {
    for (unsigned char Flip : {0x01, 0x80}) {
      std::string Mutated = Pristine;
      Mutated[Offset] = static_cast<char>(
          static_cast<unsigned char>(Mutated[Offset]) ^ Flip);
      Result<TensorBundle> Loaded = deserializeTensors(Mutated);
      EXPECT_FALSE(static_cast<bool>(Loaded))
          << "byte flip 0x" << std::hex << static_cast<int>(Flip)
          << " at offset " << std::dec << Offset << " was accepted";
    }
  }
}

TEST(CheckpointFormatTest, LegacyV1MagicIsACleanError) {
  // The pre-CRC format is no longer read: a "WOOTZCK1" file fails with an
  // Error.
  Result<TensorBundle> V1 =
      deserializeTensors(std::string("WOOTZCK1") + std::string(8, '\0'));
  ASSERT_FALSE(static_cast<bool>(V1));
  EXPECT_NE(V1.message().find("bad magic"), std::string::npos)
      << V1.message();
}

TEST(CheckpointFormatTest, TrailingGarbageIsRejected) {
  std::string Bytes = serializeTensors(smallBundle());
  // Appending bytes breaks the header's total length.
  EXPECT_FALSE(static_cast<bool>(deserializeTensors(Bytes + "xyz")));
}

TEST(CheckpointFormatTest, HugeSizeFieldsDoNotAllocate) {
  // A corrupt 4-byte field must not trigger a multi-GB std::string or
  // Tensor allocation; both length fields are validated against the
  // bytes actually remaining first — before the entry's CRC is checked,
  // so a hand-crafted record with a zero CRC reaches them.
  auto appendU32 = [](std::string &Out, uint32_t Value) {
    for (int I = 0; I < 4; ++I)
      Out.push_back(static_cast<char>((Value >> (8 * I)) & 0xff));
  };
  auto appendU64 = [](std::string &Out, uint64_t Value) {
    for (int I = 0; I < 8; ++I)
      Out.push_back(static_cast<char>((Value >> (8 * I)) & 0xff));
  };
  // Magic, total length, one entry, its CRC, then \p Record; the length
  // field is filled in so only the record's own fields are wrong.
  auto checkpoint = [&](const std::string &Record) {
    std::string Out = "WOOTZCK2";
    appendU64(Out, 8 + 8 + 8 + 4 + Record.size());
    appendU64(Out, 1);
    appendU32(Out, 0);
    return Out + Record;
  };

  // Name length 0xffffffff.
  std::string HugeName;
  appendU32(HugeName, 0xffffffffu);
  HugeName += "ab";
  Result<TensorBundle> R1 = deserializeTensors(checkpoint(HugeName));
  ASSERT_FALSE(static_cast<bool>(R1));
  EXPECT_NE(R1.message().find("exceeds the remaining"), std::string::npos)
      << R1.message();

  // Rank-4 extents whose product overflows even uint64 bytes.
  std::string HugeDims;
  appendU32(HugeDims, 1);
  HugeDims += "x";
  appendU32(HugeDims, 4); // rank
  for (int Axis = 0; Axis < 4; ++Axis)
    appendU32(HugeDims, 0x7fffffffu);
  Result<TensorBundle> R2 = deserializeTensors(checkpoint(HugeDims));
  ASSERT_FALSE(static_cast<bool>(R2));
  EXPECT_NE(R2.message().find("overflow"), std::string::npos)
      << R2.message();

  // A large-but-not-overflowing product must still be rejected against
  // the remaining byte count, not allocated.
  std::string BigTensor;
  appendU32(BigTensor, 1);
  BigTensor += "y";
  appendU32(BigTensor, 2);
  appendU32(BigTensor, 65536);
  appendU32(BigTensor, 65536); // 16 GiB payload claimed, 0 bytes present.
  Result<TensorBundle> R3 = deserializeTensors(checkpoint(BigTensor));
  ASSERT_FALSE(static_cast<bool>(R3));
  EXPECT_NE(R3.message().find("claims"), std::string::npos) << R3.message();
}

//===----------------------------------------------------------------------===//
// Atomic save
//===----------------------------------------------------------------------===//

TEST(CheckpointAtomicSaveTest, NoPartialFileUnderTheFinalName) {
  // Writers save alternating bundles to one path while a reader loads it
  // in a loop. Every load must see a complete, valid checkpoint — one of
  // the two bundles — never a partial write (the temp+rename contract).
  ScratchDir Dir("wootz_atomic_save_test");
  const std::string Path = Dir.file("contested.ckpt");

  TensorBundle A = smallBundle();
  TensorBundle B;
  B["other/s0"] = Tensor(Shape{4}, {9, 9, 9, 9});
  ASSERT_FALSE(static_cast<bool>(saveTensors(Path, A)));

  std::atomic<bool> Stop{false};
  std::atomic<int> WriteCount{0};
  std::thread Writer([&] {
    for (int I = 0; I < 200; ++I) {
      Error E = saveTensors(Path, (I % 2 == 0) ? B : A);
      ASSERT_FALSE(static_cast<bool>(E)) << E.message();
      WriteCount.fetch_add(1);
    }
    Stop = true;
  });
  int Loads = 0;
  while (!Stop.load()) {
    Result<TensorBundle> Loaded = loadTensors(Path);
    ASSERT_TRUE(static_cast<bool>(Loaded))
        << "load " << Loads << " after " << WriteCount.load()
        << " writes: " << Loaded.message();
    EXPECT_TRUE(bundlesEqual(*Loaded, A) || bundlesEqual(*Loaded, B));
    ++Loads;
  }
  Writer.join();
  EXPECT_GT(Loads, 0);

  // No temporary litter outlives the writers.
  int Residue = 0;
  for (const auto &Entry : fs::directory_iterator(Dir.str()))
    if (Entry.path().filename().string().find(".tmp.") != std::string::npos)
      ++Residue;
  EXPECT_EQ(Residue, 0);
}

TEST(CheckpointAtomicSaveTest, FailedSaveLeavesOldFileIntact) {
  ScratchDir Dir("wootz_atomic_fail_test");
  const std::string Path = Dir.file("victim.ckpt");
  ASSERT_FALSE(static_cast<bool>(saveTensors(Path, smallBundle())));

  // Writing over a path whose parent is a *file* cannot succeed; the
  // original must survive untouched.
  const std::string Blocked = Dir.file("victim.ckpt/nested.ckpt");
  Error E = saveTensors(Blocked, smallBundle());
  EXPECT_TRUE(static_cast<bool>(E));
  Result<TensorBundle> Loaded = loadTensors(Path);
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.message();
  EXPECT_TRUE(bundlesEqual(*Loaded, smallBundle()));
}

TEST(CheckpointAtomicSaveTest, TwoProcessesWritingOnePath) {
  // Two processes (say, two daemons on one artifact root) save different
  // bundles to one path, round after round, both starting each round
  // together. Each writer must use its own temporary file: sharing one
  // lets a writer rename the other's torn file into place, or find its
  // own temporary renamed away. The writers fork from one process, so a
  // temporary name drawn from per-process state alone would collide.
  ScratchDir Dir("wootz_atomic_fork_test");
  const std::string Path = Dir.file("contested.ckpt");
  constexpr int Floats = 65536;
  const TensorBundle Bundles[2] = {
      {{"w/s0", Tensor(Shape{Floats}, std::vector<float>(Floats, 1.0f))}},
      {{"w/s0", Tensor(Shape{Floats}, std::vector<float>(Floats, 2.0f))}}};
  ASSERT_FALSE(static_cast<bool>(saveTensors(Path, Bundles[0])));

  // Run the writers on two different CPUs where there are two, so their
  // saves overlap in time instead of taking turns on one.
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(Allowed), &Allowed), 0);
  std::vector<int> Cpus;
  for (int Cpu = 0; Cpu < CPU_SETSIZE && Cpus.size() < 2; ++Cpu)
    if (CPU_ISSET(Cpu, &Allowed))
      Cpus.push_back(Cpu);

  // Per writer: a pipe that starts one save per byte, and one that
  // reports each save's outcome.
  int Go[2][2], Done[2][2];
  pid_t Writers[2];
  for (int W = 0; W < 2; ++W) {
    ASSERT_EQ(::pipe(Go[W]), 0);
    ASSERT_EQ(::pipe(Done[W]), 0);
    Writers[W] = ::fork();
    ASSERT_GE(Writers[W], 0);
    if (Writers[W] == 0) {
      // Hold no start pipe open for writing, so closing them ends us.
      for (int V = 0; V <= W; ++V)
        ::close(Go[V][1]);
      if (Cpus.size() == 2) {
        cpu_set_t Mine;
        CPU_ZERO(&Mine);
        CPU_SET(Cpus[W], &Mine);
        (void)::sched_setaffinity(0, sizeof(Mine), &Mine);
      }
      char Byte;
      while (::read(Go[W][0], &Byte, 1) == 1) {
        const char Outcome = saveTensors(Path, Bundles[W]) ? 'x' : 'o';
        if (::write(Done[W][1], &Outcome, 1) != 1)
          break;
      }
      ::_exit(0);
    }
  }
  for (int Round = 0; Round < 100; ++Round) {
    for (int W = 0; W < 2; ++W)
      ASSERT_EQ(::write(Go[W][1], "g", 1), 1);
    for (int W = 0; W < 2; ++W) {
      char Outcome = 0;
      ASSERT_EQ(::read(Done[W][0], &Outcome, 1), 1);
      EXPECT_EQ(Outcome, 'o') << "writer " << W << " failed in round "
                              << Round;
    }
    Result<TensorBundle> Loaded = loadTensors(Path);
    ASSERT_TRUE(static_cast<bool>(Loaded))
        << "round " << Round << ": " << Loaded.message();
    ASSERT_TRUE(bundlesEqual(*Loaded, Bundles[0]) ||
                bundlesEqual(*Loaded, Bundles[1]))
        << "round " << Round << " left a torn or foreign file";
  }
  for (int W = 0; W < 2; ++W) {
    ::close(Go[W][1]);
    int Status = 0;
    ASSERT_EQ(::waitpid(Writers[W], &Status, 0), Writers[W]);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  }

  int Residue = 0;
  for (const auto &Entry : fs::directory_iterator(Dir.str()))
    if (Entry.path().filename().string().find(".tmp.") != std::string::npos)
      ++Residue;
  EXPECT_EQ(Residue, 0);
}

//===----------------------------------------------------------------------===//
// BlockCache
//===----------------------------------------------------------------------===//

class BlockCacheTest : public ::testing::Test {
protected:
  CacheConfig configFor(const std::string &Dir) {
    CacheConfig Config;
    Config.Directory = Dir;
    return Config;
  }
};

TEST_F(BlockCacheTest, MissThenPublishThenHit) {
  ScratchDir Dir("wootz_blockcache_basic");
  RunLog Log;
  BlockCache Cache(configFor(Dir.str()), &Log);
  Cache.bindContext(/*TeacherFingerprint=*/111, /*MetaHash=*/222);

  CheckpointStore Store;
  EXPECT_FALSE(Cache.fetch("m0@0.5", Store));
  Store.insert("m0@0.5", smallBundle());
  ASSERT_FALSE(static_cast<bool>(Cache.publish("m0@0.5", Store)));

  CheckpointStore Fresh;
  EXPECT_TRUE(Cache.fetch("m0@0.5", Fresh));
  EXPECT_TRUE(Fresh.contains("m0@0.5"));
  Result<TensorBundle> RoundTripped = Fresh.bundleCopy("m0@0.5");
  ASSERT_TRUE(static_cast<bool>(RoundTripped));
  EXPECT_TRUE(bundlesEqual(*RoundTripped, smallBundle()));

  const BlockCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 1);
  EXPECT_EQ(Stats.Misses, 1);
  const RunTelemetry Telemetry = Log.snapshot();
  EXPECT_EQ(Telemetry.counter("cache.hit"), 1);
  EXPECT_EQ(Telemetry.counter("cache.miss"), 1);
  int SaveSpans = 0, LoadSpans = 0;
  for (const SpanEvent &Span : Telemetry.Spans) {
    SaveSpans += Span.Kind == "cache.save";
    LoadSpans += Span.Kind == "cache.load";
  }
  EXPECT_EQ(SaveSpans, 1);
  EXPECT_EQ(LoadSpans, 1);
}

TEST_F(BlockCacheTest, ContextChangesAreMisses) {
  // Same block id under a different teacher or recipe must not hit: the
  // context is part of the entry address.
  ScratchDir Dir("wootz_blockcache_context");
  BlockCache Publisher(configFor(Dir.str()));
  Publisher.bindContext(111, 222);
  CheckpointStore Store;
  Store.insert("m0@0.5", smallBundle());
  ASSERT_FALSE(static_cast<bool>(Publisher.publish("m0@0.5", Store)));

  BlockCache OtherTeacher(configFor(Dir.str()));
  OtherTeacher.bindContext(999, 222);
  CheckpointStore S1;
  EXPECT_FALSE(OtherTeacher.fetch("m0@0.5", S1));

  BlockCache OtherMeta(configFor(Dir.str()));
  OtherMeta.bindContext(111, 999);
  CheckpointStore S2;
  EXPECT_FALSE(OtherMeta.fetch("m0@0.5", S2));

  BlockCache SameContext(configFor(Dir.str()));
  SameContext.bindContext(111, 222);
  CheckpointStore S3;
  EXPECT_TRUE(SameContext.fetch("m0@0.5", S3));
}

TEST_F(BlockCacheTest, CorruptEntryIsQuarantinedAndMisses) {
  ScratchDir Dir("wootz_blockcache_corrupt");
  RunLog Log;
  BlockCache Cache(configFor(Dir.str()), &Log);
  Cache.bindContext(1, 2);
  CheckpointStore Store;
  Store.insert("m1@0.3", smallBundle());
  ASSERT_FALSE(static_cast<bool>(Cache.publish("m1@0.3", Store)));

  const std::string Path = Cache.entryPath("m1@0.3");
  Result<std::string> Bytes = readFile(Path);
  ASSERT_TRUE(static_cast<bool>(Bytes));
  std::string Mutated = *Bytes;
  Mutated[Mutated.size() - 3] ^= 0x01;
  ASSERT_FALSE(static_cast<bool>(writeFile(Path, Mutated)));

  CheckpointStore Fresh;
  EXPECT_FALSE(Cache.fetch("m1@0.3", Fresh));
  EXPECT_FALSE(Fresh.contains("m1@0.3"));
  EXPECT_FALSE(fs::exists(Path));
  EXPECT_TRUE(fs::exists(Path + ".corrupt"));
  EXPECT_EQ(Cache.stats().Corrupt, 1);
  EXPECT_EQ(Log.snapshot().counter("cache.corrupt"), 1);

  // The quarantined slot is free again: re-publishing (the "re-train"
  // path) restores service.
  ASSERT_FALSE(static_cast<bool>(Cache.publish("m1@0.3", Store)));
  CheckpointStore Recovered;
  EXPECT_TRUE(Cache.fetch("m1@0.3", Recovered));
}

TEST_F(BlockCacheTest, LruEvictionRespectsSizeCap) {
  ScratchDir Dir("wootz_blockcache_lru");
  CheckpointStore Store;
  Store.insert("blk", smallBundle());
  const uint64_t EntryBytes = serializeTensors(smallBundle()).size();

  CacheConfig Config = configFor(Dir.str());
  Config.MaxBytes = EntryBytes * 2 + EntryBytes / 2; // Fits two entries.
  RunLog Log;
  BlockCache Cache(Config, &Log);
  Cache.bindContext(5, 6);

  auto publishAs = [&](const std::string &Id) {
    Store.insert(Id, smallBundle());
    ASSERT_FALSE(static_cast<bool>(Cache.publish(Id, Store)));
    // mtime granularity on some filesystems is one second; nudge the
    // clock order explicitly so LRU is deterministic.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  publishAs("m0@0.1");
  publishAs("m0@0.2");
  publishAs("m0@0.3"); // Evicts m0@0.1, the oldest.

  CheckpointStore Probe;
  EXPECT_FALSE(Cache.fetch("m0@0.1", Probe));
  EXPECT_TRUE(Cache.fetch("m0@0.2", Probe));
  EXPECT_TRUE(Cache.fetch("m0@0.3", Probe));
  EXPECT_GE(Cache.stats().Evicted, 1);
  EXPECT_GE(Log.snapshot().counter("cache.evicted"), 1);
}

TEST_F(BlockCacheTest, ReadOnlyModeNeverWrites) {
  ScratchDir Dir("wootz_blockcache_readonly");
  BlockCache Writer(configFor(Dir.str()));
  Writer.bindContext(7, 8);
  CheckpointStore Store;
  Store.insert("m2@0.5", smallBundle());
  ASSERT_FALSE(static_cast<bool>(Writer.publish("m2@0.5", Store)));

  CacheConfig ReadOnly = configFor(Dir.str());
  ReadOnly.ReadOnly = true;
  BlockCache Reader(ReadOnly);
  Reader.bindContext(7, 8);

  CheckpointStore Probe;
  EXPECT_TRUE(Reader.fetch("m2@0.5", Probe)); // Hits still served.
  Store.insert("m3@0.5", smallBundle());
  ASSERT_FALSE(static_cast<bool>(Reader.publish("m3@0.5", Store)));
  CheckpointStore Probe2;
  EXPECT_FALSE(Reader.fetch("m3@0.5", Probe2)); // Publish was dropped.

  // Corrupt entries are reported but not renamed in read-only mode.
  const std::string Path = Reader.entryPath("m2@0.5");
  ASSERT_FALSE(static_cast<bool>(writeFile(Path, "WOOTZCK2garbage")));
  CheckpointStore Probe3;
  EXPECT_FALSE(Reader.fetch("m2@0.5", Probe3));
  EXPECT_TRUE(fs::exists(Path));
  EXPECT_FALSE(fs::exists(Path + ".corrupt"));
}

TEST_F(BlockCacheTest, DisabledCacheIsInert) {
  BlockCache Disabled;
  CheckpointStore Store;
  Store.insert("m0@0.5", smallBundle());
  EXPECT_FALSE(Disabled.fetch("m0@0.5", Store));
  EXPECT_FALSE(static_cast<bool>(Disabled.publish("m0@0.5", Store)));
  const BlockCacheStats Stats = Disabled.stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses + Stats.Corrupt + Stats.Evicted, 0);
}

TEST_F(BlockCacheTest, CollidingKeysGetDistinctEntries) {
  // Keys that sanitize to the same characters land in two entries, and
  // each loads back its own bundle.
  ScratchDir Dir("wootz_blockcache_colliding");
  BlockCache Cache(configFor(Dir.str()));
  Cache.bindContext(1, 2);
  TensorBundle Other;
  Other["other/s0"] = Tensor(Shape{1}, {3.0f});
  ASSERT_FALSE(static_cast<bool>(Cache.publishEntry("a|b", smallBundle())));
  ASSERT_FALSE(static_cast<bool>(Cache.publishEntry("a:b", Other)));
  EXPECT_NE(Cache.entryPath("a|b"), Cache.entryPath("a:b"));

  CheckpointStore Store;
  ASSERT_TRUE(Cache.fetch("a|b", Store));
  ASSERT_TRUE(Cache.fetch("a:b", Store));
  EXPECT_TRUE(bundlesEqual(*Store.bundleCopy("a|b"), smallBundle()));
  EXPECT_TRUE(bundlesEqual(*Store.bundleCopy("a:b"), Other));
}

TEST_F(BlockCacheTest, EntryRejectedByItsUserIsQuarantined) {
  // An entry that decodes but that its user cannot take (the teacher
  // cache's missing generator state) is treated like a corrupt one.
  ScratchDir Dir("wootz_blockcache_rejected");
  BlockCache Cache(configFor(Dir.str()));
  Cache.bindContext(1, 2);
  ASSERT_FALSE(static_cast<bool>(Cache.publishEntry("teacher", smallBundle())));
  const std::string Path = Cache.entryPath("teacher");

  EXPECT_FALSE(Cache.fetchEntry("teacher", [](TensorBundle &) { return false; }));
  EXPECT_FALSE(fs::exists(Path));
  EXPECT_TRUE(fs::exists(Path + ".corrupt"));
  const BlockCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Corrupt, 1);
  EXPECT_EQ(Stats.Misses, 1);
  EXPECT_EQ(Stats.Hits, 0);
}

TEST_F(BlockCacheTest, ConcurrentPublishersAndFetchers) {
  // The Overlap schedule publishes from concurrent group tasks while
  // other tasks fetch. All operations must stay clean under the race.
  ScratchDir Dir("wootz_blockcache_stress");
  RunLog Log;
  BlockCache Cache(configFor(Dir.str()), &Log);
  Cache.bindContext(3, 4);

  constexpr int PerThread = 16;
  auto Publisher = [&](int Which) {
    CheckpointStore Store;
    for (int I = 0; I < PerThread; ++I) {
      const std::string Id =
          "t" + std::to_string(Which) + "@" + std::to_string(I);
      Store.insert(Id, smallBundle());
      Error E = Cache.publish(Id, Store);
      ASSERT_FALSE(static_cast<bool>(E)) << E.message();
    }
  };
  std::atomic<bool> Stop{false};
  std::thread A([&] { Publisher(0); });
  std::thread B([&] { Publisher(1); });
  std::thread Fetcher([&] {
    while (!Stop.load()) {
      CheckpointStore Probe;
      Cache.fetch("t0@0", Probe);
      Cache.fetch("t1@" + std::to_string(PerThread - 1), Probe);
    }
  });
  A.join();
  B.join();
  Stop = true;
  Fetcher.join();

  CheckpointStore Probe;
  for (int Which = 0; Which < 2; ++Which)
    for (int I = 0; I < PerThread; ++I)
      EXPECT_TRUE(Cache.fetch(
          "t" + std::to_string(Which) + "@" + std::to_string(I), Probe));
  EXPECT_EQ(Cache.stats().Corrupt, 0);
}

//===----------------------------------------------------------------------===//
// Flat JSON parser (lease, registry, job-record and request dependency)
//===----------------------------------------------------------------------===//

TEST(CheckpointManifestJsonTest, ParsesWriterOutput) {
  JsonObject Row;
  Row.field("key", "a\tb\"c\\d").field("file", "x.ckpt").field("n", 3);
  Result<std::map<std::string, std::string>> Parsed =
      parseFlatJsonObject(Row.str());
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ((*Parsed)["key"], "a\tb\"c\\d");
  EXPECT_EQ((*Parsed)["file"], "x.ckpt");
  EXPECT_EQ((*Parsed)["n"], "3");
}

TEST(CheckpointManifestJsonTest, RejectsMalformedObjects) {
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("")));
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("{\"a\":1")));
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("{\"a\":{}}")));
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("{\"a\":1}x")));
  EXPECT_FALSE(
      static_cast<bool>(parseFlatJsonObject("{\"a\":1,\"a\":2}")));
  EXPECT_TRUE(static_cast<bool>(parseFlatJsonObject("{}")));
  EXPECT_TRUE(static_cast<bool>(
      parseFlatJsonObject(" { \"a\" : \"b\" , \"c\" : true } ")));
}

} // namespace
