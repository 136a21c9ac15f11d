//===- serve/ArtifactStore.cpp ---------------------------------------------===//

#include "src/serve/ArtifactStore.h"

#include "src/support/File.h"
#include "src/support/Hash.h"
#include "src/support/Json.h"
#include "src/support/Lease.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <filesystem>

#include <unistd.h>

using namespace wootz;
using namespace wootz::serve;

namespace fs = std::filesystem;

ArtifactStore::ArtifactStore(ArtifactStoreOptions Options, RunLog *Log)
    : Options(std::move(Options)), Log(Log) {
  if (this->Options.ProcessName.empty()) {
    // Unique per store *instance*, not just per OS process: benches and
    // tests run several daemons inside one process.
    static std::atomic<uint64_t> Serial{0};
    this->Options.ProcessName = "proc-" + std::to_string(::getpid()) +
                                "-" +
                                std::to_string(Serial.fetch_add(1));
  }
  std::error_code Ignored;
  fs::create_directories(this->Options.Root, Ignored);
}

ArtifactStore::~ArtifactStore() { unregisterProcess(); }

Error ArtifactStore::rootError() const {
  if (Options.Root.empty())
    return Error::failure("the artifact root is empty; give the daemon a "
                          "state directory");
  return Error::success();
}

CacheConfig ArtifactStore::blockCacheConfig() const {
  CacheConfig Out;
  Out.Directory = blockCacheDir();
  Out.MaxBytes = Options.BlockCacheMaxBytes;
  return Out;
}

Error ArtifactStore::heartbeat() {
  if (Error E = rootError())
    return E;
  JsonObject Beat;
  Beat.field("name", Options.ProcessName)
      .field("expires_unix_ms",
             static_cast<int64_t>(
                 unixMillisNow() +
                 static_cast<int64_t>(Options.ProcessTtlSeconds * 1e3)));
  Error Written = writeFileAtomic(heartbeatPath(), Beat.str() + "\n");
  if (!Written)
    Registered = true;
  return Written;
}

void ArtifactStore::unregisterProcess() {
  if (!Registered)
    return;
  std::error_code Ignored;
  fs::remove(heartbeatPath(), Ignored);
  Registered = false;
}

std::vector<std::string> ArtifactStore::activeProcesses() const {
  std::vector<std::string> Out;
  const int64_t NowMs = unixMillisNow();
  std::error_code FsError;
  for (const auto &Entry :
       fs::directory_iterator(registryDir(), FsError)) {
    if (!Entry.is_regular_file())
      continue;
    if (Entry.path().extension() != ".json")
      continue;
    Result<std::string> Text = readFile(Entry.path().string());
    if (!Text)
      continue;
    Result<std::map<std::string, std::string>> Beat =
        parseFlatJsonObject(trim(*Text));
    if (!Beat)
      continue;
    auto NameIt = Beat->find("name");
    auto ExpiresIt = Beat->find("expires_unix_ms");
    if (NameIt == Beat->end() || ExpiresIt == Beat->end())
      continue;
    Result<long long> Expires = parseInteger(ExpiresIt->second);
    if (!Expires || *Expires <= NowMs)
      continue; // Expired heartbeat: the process is presumed dead.
    Out.push_back(NameIt->second);
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::string ArtifactStore::ownerOf(const std::string &Key) const {
  const std::vector<std::string> Active = activeProcesses();
  if (Active.empty())
    return std::string();
  // Rendezvous hashing: score every (key, process) pair with the same
  // deterministic hash everywhere; the highest score wins, ties broken
  // by name order (Active is sorted, and > keeps the first maximum).
  std::string Winner;
  uint64_t Best = 0;
  for (const std::string &Name : Active) {
    const uint64_t Score =
        Fnv1a().mix(std::string_view(Key)).mix(uint64_t(0x9e3779b9u))
            .mix(std::string_view(Name))
            .digest();
    if (Winner.empty() || Score > Best) {
      Winner = Name;
      Best = Score;
    }
  }
  return Winner;
}

bool ArtifactStore::ownsLocally(const std::string &Key) const {
  if (!Registered)
    return true;
  const std::string Owner = ownerOf(Key);
  return Owner.empty() || Owner == Options.ProcessName;
}

ArtifactUsage ArtifactStore::usage(const std::string &Dir) {
  ArtifactUsage Out;
  std::error_code FsError;
  for (const auto &Entry : fs::directory_iterator(Dir, FsError)) {
    if (!Entry.is_regular_file(FsError))
      continue;
    ++Out.Entries;
    Out.Bytes += static_cast<uint64_t>(Entry.file_size(FsError));
  }
  return Out;
}
