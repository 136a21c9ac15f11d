//===- support/File.cpp ------------------------------------------------------===//

#include "src/support/File.h"

#include <atomic>
#include <filesystem>
#include <fstream>

#include <unistd.h>

using namespace wootz;

Result<std::string> wootz::readFile(const std::string &Path) {
  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream)
    return Error::failure("cannot open '" + Path + "' for reading");
  std::string Contents((std::istreambuf_iterator<char>(Stream)),
                       std::istreambuf_iterator<char>());
  if (Stream.bad())
    return Error::failure("read from '" + Path + "' failed");
  return Contents;
}

Error wootz::writeFile(const std::string &Path,
                       const std::string &Contents) {
  const std::filesystem::path Target(Path);
  if (Target.has_parent_path()) {
    std::error_code FsError;
    std::filesystem::create_directories(Target.parent_path(), FsError);
    if (FsError)
      return Error::failure("cannot create directories for '" + Path +
                            "'");
  }
  std::ofstream Stream(Path, std::ios::binary | std::ios::trunc);
  if (!Stream)
    return Error::failure("cannot open '" + Path + "' for writing");
  Stream.write(Contents.data(),
               static_cast<std::streamsize>(Contents.size()));
  if (!Stream)
    return Error::failure("write to '" + Path + "' failed");
  return Error::success();
}

std::string wootz::uniqueTempPath(const std::string &Path) {
  // The pid disambiguates processes sharing a directory (two daemons on
  // one artifact root), the counter concurrent writers within one.
  static std::atomic<uint64_t> Serial{0};
  return Path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(Serial.fetch_add(1));
}

Error wootz::writeFileAtomic(const std::string &Path,
                             const std::string &Contents) {
  // The temporary must live in the same directory as the target:
  // rename(2) is only atomic within one filesystem, and keeping it next
  // to the target guarantees that. Each writer has its own temporary;
  // the rename then decides the winner atomically.
  const std::string TempPath = uniqueTempPath(Path);
  if (Error E = writeFile(TempPath, Contents))
    return E;
  std::error_code FsError;
  std::filesystem::rename(TempPath, Path, FsError);
  if (FsError) {
    std::filesystem::remove(TempPath, FsError);
    return Error::failure("cannot rename '" + TempPath + "' over '" +
                          Path + "'");
  }
  return Error::success();
}
