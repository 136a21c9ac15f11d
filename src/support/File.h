//===- support/File.h - Whole-file I/O helpers -----------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-file read/write helpers used by the tools and examples that take
/// their Figure-2 inputs (Prototxt model, subspace spec, solver meta,
/// objective spec) from disk.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SUPPORT_FILE_H
#define WOOTZ_SUPPORT_FILE_H

#include "src/support/Error.h"

#include <string>

namespace wootz {

/// Reads the whole file at \p Path.
Result<std::string> readFile(const std::string &Path);

/// Writes (truncating) \p Contents to \p Path, creating parent
/// directories as needed.
Error writeFile(const std::string &Path, const std::string &Contents);

/// A temporary name next to \p Path ("<Path>.tmp.<pid>.<counter>"),
/// unique across processes and within one, so concurrent writers of one
/// path never share a temporary file.
std::string uniqueTempPath(const std::string &Path);

/// Crash-safe variant of writeFile(): writes \p Contents to a
/// uniqueTempPath() next to \p Path and renames it over \p Path, so a
/// reader (or a crash at any point) observes either the old file or the
/// complete new one under the final name — never a partial write. The
/// temporary is removed on failure.
Error writeFileAtomic(const std::string &Path,
                      const std::string &Contents);

} // namespace wootz

#endif // WOOTZ_SUPPORT_FILE_H
