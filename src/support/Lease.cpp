//===- support/Lease.cpp ---------------------------------------------------===//

#include "src/support/Lease.h"

#include "src/support/File.h"
#include "src/support/Json.h"
#include "src/support/StringUtils.h"

#include <cerrno>
#include <chrono>
#include <filesystem>

#include <unistd.h>

using namespace wootz;

int64_t wootz::unixMillisNow() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

namespace {

std::string renderLease(const std::string &Owner, int64_t ExpiresUnixMs) {
  JsonObject Out;
  Out.field("owner", Owner)
      .field("expires_unix_ms", static_cast<int64_t>(ExpiresUnixMs));
  return Out.str() + "\n";
}

} // namespace

Result<LeaseInfo> wootz::readLease(const std::string &Path) {
  Result<std::string> Text = readFile(Path);
  if (!Text)
    return Error::failure("lease: " + Text.message());
  Result<std::map<std::string, std::string>> Fields =
      parseFlatJsonObject(trim(*Text));
  if (!Fields)
    return Error::failure("lease '" + Path + "': " + Fields.message());
  auto OwnerIt = Fields->find("owner");
  auto ExpiresIt = Fields->find("expires_unix_ms");
  if (OwnerIt == Fields->end() || ExpiresIt == Fields->end())
    return Error::failure("lease '" + Path +
                          "': missing owner or expiry field");
  Result<long long> Expires = parseInteger(ExpiresIt->second);
  if (!Expires)
    return Error::failure("lease '" + Path + "': " + Expires.message());
  LeaseInfo Out;
  Out.Owner = OwnerIt->second;
  Out.ExpiresUnixMs = static_cast<int64_t>(*Expires);
  return Out;
}

Result<bool> wootz::tryAcquireLease(const std::string &Path,
                                    const std::string &Owner,
                                    int64_t TtlMillis) {
  const std::filesystem::path Target(Path);
  if (Target.has_parent_path()) {
    std::error_code FsError;
    std::filesystem::create_directories(Target.parent_path(), FsError);
    if (FsError)
      return Error::failure("cannot create directories for lease '" +
                            Path + "'");
  }
  // Up to three rounds: a fresh attempt, one after stealing an expired
  // lease, and one more in case a concurrent stealer won the race and
  // its lease immediately expired (degenerate TTLs in tests).
  for (int Attempt = 0; Attempt < 3; ++Attempt) {
    const std::string Temp = uniqueTempPath(Path);
    if (Error E = writeFile(Temp, renderLease(Owner, unixMillisNow() +
                                                         TtlMillis)))
      return E;
    const int Linked = ::link(Temp.c_str(), Path.c_str());
    const int LinkErrno = errno;
    std::error_code Ignored;
    std::filesystem::remove(Temp, Ignored);
    if (Linked == 0) {
      // link(2) is exclusive: we created the lease file. Verify by
      // read-back anyway — it also covers filesystems where link()
      // spuriously reports success after a retry.
      Result<LeaseInfo> Mine = readLease(Path);
      return static_cast<bool>(Mine) && Mine->Owner == Owner;
    }
    if (LinkErrno != EEXIST)
      return Error::failure("cannot create lease '" + Path + "'");
    Result<LeaseInfo> Held = readLease(Path);
    if (Held && !Held->expired(unixMillisNow()))
      return false; // Live owner.
    // Expired (or vanished between link and read): remove and retry.
    // Two concurrent stealers may both unlink; the link() above then
    // picks exactly one winner, and the read-back tells each which.
    std::filesystem::remove(Path, Ignored);
  }
  return false;
}

Error wootz::renewLease(const std::string &Path, const std::string &Owner,
                        int64_t TtlMillis) {
  Result<LeaseInfo> Held = readLease(Path);
  if (!Held)
    return Error::failure("renew: " + Held.message());
  if (Held->Owner != Owner)
    return Error::failure("lease '" + Path + "' is held by '" +
                          Held->Owner + "', not '" + Owner + "'");
  // Atomic rename: a reader sees the old expiry or the new one, never a
  // torn file. Only the owner renews, so this cannot clobber a peer
  // (stealing is gated on expiry, which renewal keeps pushing out).
  return writeFileAtomic(Path, renderLease(Owner, unixMillisNow() +
                                                      TtlMillis));
}

void wootz::releaseLease(const std::string &Path,
                         const std::string &Owner) {
  Result<LeaseInfo> Held = readLease(Path);
  if (!Held || Held->Owner != Owner)
    return;
  std::error_code Ignored;
  std::filesystem::remove(Path, Ignored);
}
