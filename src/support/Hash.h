//===- support/Hash.h - Checksums and content fingerprints -----------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two hashes the persistence layer is built on: CRC32 (IEEE,
/// reflected 0xEDB88320) for on-disk corruption detection in the
/// WOOTZCK2 checkpoint format, and FNV-1a 64 for content fingerprints —
/// collision-resistant-enough file-name suffixes and the (teacher,
/// hyperparameter) context keys of the cross-run block cache. Neither is
/// cryptographic; they defend against bit rot and accidents, not
/// adversaries.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SUPPORT_HASH_H
#define WOOTZ_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace wootz {

/// CRC32 (IEEE 802.3) of \p Size bytes at \p Data, optionally continuing
/// from a previous checksum \p Seed (pass the prior return value).
uint32_t crc32(const void *Data, size_t Size, uint32_t Seed = 0);

inline uint32_t crc32(std::string_view Bytes, uint32_t Seed = 0) {
  return crc32(Bytes.data(), Bytes.size(), Seed);
}

/// Incremental FNV-1a 64-bit hasher. Deterministic across platforms and
/// runs (unlike std::hash), so values can live in file names and be
/// compared between processes.
class Fnv1a {
public:
  Fnv1a &mixBytes(const void *Data, size_t Size);

  Fnv1a &mix(std::string_view Text) {
    return mixBytes(Text.data(), Text.size());
  }

  Fnv1a &mix(uint64_t Value) { return mixBytes(&Value, sizeof(Value)); }

  Fnv1a &mix(int64_t Value) { return mixBytes(&Value, sizeof(Value)); }

  Fnv1a &mix(int Value) {
    return mix(static_cast<int64_t>(Value));
  }

  Fnv1a &mix(float Value) { return mixBytes(&Value, sizeof(Value)); }

  Fnv1a &mix(double Value) { return mixBytes(&Value, sizeof(Value)); }

  uint64_t digest() const { return State; }

private:
  uint64_t State = 0xcbf29ce484222325ull;
};

/// FNV-1a 64 of \p Text in one call.
uint64_t fnv1a(std::string_view Text);

/// Lower-case hex rendering of the low \p Digits nibbles of \p Value
/// (most significant first). Digits must be in [1, 16].
std::string toHex(uint64_t Value, int Digits = 16);

} // namespace wootz

#endif // WOOTZ_SUPPORT_HASH_H
