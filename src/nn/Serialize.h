//===- nn/Serialize.h - Tensor (de)serialization ---------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal binary format mapping names to tensors — the equivalent of
/// TensorFlow checkpoints the paper stores pre-trained tuning blocks in.
///
/// The format ("WOOTZCK2"; all integers little-endian uint32/uint64):
/// magic, total length, entry count, then per entry a CRC32 and the entry
/// record (name, rank, extents, data). The length field catches
/// truncation before any entry is parsed, and the CRC covers the whole
/// record, so any byte flip in a name, shape, or payload is a clean Error
/// instead of silently wrong weights.
///
/// Writing to disk goes through writeFileAtomic(), so a save interrupted
/// at any point leaves either the old or the complete new file under the
/// final name — never a partial one.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_NN_SERIALIZE_H
#define WOOTZ_NN_SERIALIZE_H

#include "src/support/Error.h"
#include "src/tensor/Tensor.h"

#include <map>
#include <string>

namespace wootz {

/// A named tensor bundle, the in-memory form of a checkpoint file.
using TensorBundle = std::map<std::string, Tensor>;

/// Serializes \p Bundle into a byte string.
std::string serializeTensors(const TensorBundle &Bundle);

/// Parses a byte string produced by serializeTensors(). Truncation, byte
/// flips, oversized or overflowing size fields, other format versions
/// and trailing garbage all produce an Error, never a crash or a
/// multi-gigabyte allocation.
Result<TensorBundle> deserializeTensors(const std::string &Bytes);

/// Writes \p Bundle to \p Path atomically (write-to-temp, then rename);
/// returns an error on I/O failure.
Error saveTensors(const std::string &Path, const TensorBundle &Bundle);

/// Reads a bundle from \p Path.
Result<TensorBundle> loadTensors(const std::string &Path);

} // namespace wootz

#endif // WOOTZ_NN_SERIALIZE_H
