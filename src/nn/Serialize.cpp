//===- nn/Serialize.cpp ----------------------------------------------------===//

#include "src/nn/Serialize.h"

#include "src/support/File.h"
#include "src/support/Hash.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>

using namespace wootz;

static const char Magic[8] = {'W', 'O', 'O', 'T', 'Z', 'C', 'K', '2'};

static void appendU32(std::string &Out, uint32_t Value) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((Value >> (8 * I)) & 0xff));
}

static void appendU64(std::string &Out, uint64_t Value) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((Value >> (8 * I)) & 0xff));
}

static void patchU64(std::string &Out, size_t Offset, uint64_t Value) {
  for (int I = 0; I < 8; ++I)
    Out[Offset + I] = static_cast<char>((Value >> (8 * I)) & 0xff);
}

namespace {
/// Cursor over the serialized byte string with bounds-checked reads.
class Reader {
public:
  explicit Reader(const std::string &Bytes) : Bytes(Bytes) {}

  bool readU32(uint32_t &Value) {
    if (remaining() < 4)
      return false;
    Value = 0;
    for (int I = 0; I < 4; ++I)
      Value |= static_cast<uint32_t>(
                   static_cast<unsigned char>(Bytes[Offset + I]))
               << (8 * I);
    Offset += 4;
    return true;
  }

  bool readU64(uint64_t &Value) {
    if (remaining() < 8)
      return false;
    Value = 0;
    for (int I = 0; I < 8; ++I)
      Value |= static_cast<uint64_t>(
                   static_cast<unsigned char>(Bytes[Offset + I]))
               << (8 * I);
    Offset += 8;
    return true;
  }

  bool readBytes(void *Out, size_t Count) {
    if (remaining() < Count)
      return false;
    std::memcpy(Out, Bytes.data() + Offset, Count);
    Offset += Count;
    return true;
  }

  size_t offset() const { return Offset; }
  size_t remaining() const { return Bytes.size() - Offset; }

  /// CRC32 of the already-consumed range [From, offset()).
  uint32_t crcSince(size_t From) const {
    return crc32(Bytes.data() + From, Offset - From);
  }

private:
  const std::string &Bytes;
  size_t Offset = 0;
};
} // namespace

/// Serializes one entry record (name length, name, rank, extents, data)
/// — the unit the per-entry CRC covers.
static void appendEntryRecord(std::string &Out, const std::string &Name,
                              const Tensor &Value) {
  appendU32(Out, static_cast<uint32_t>(Name.size()));
  Out += Name;
  appendU32(Out, static_cast<uint32_t>(Value.shape().rank()));
  for (int Axis = 0; Axis < Value.shape().rank(); ++Axis)
    appendU32(Out, static_cast<uint32_t>(Value.shape()[Axis]));
  const size_t ByteCount = Value.size() * sizeof(float);
  Out.append(reinterpret_cast<const char *>(Value.data()), ByteCount);
}

std::string wootz::serializeTensors(const TensorBundle &Bundle) {
  std::string Out;
  Out.append(Magic, sizeof(Magic));
  const size_t LengthOffset = Out.size();
  appendU64(Out, 0); // Total length, patched once the size is known.
  appendU64(Out, Bundle.size());
  for (const auto &[Name, Value] : Bundle) {
    std::string Record;
    appendEntryRecord(Record, Name, Value);
    appendU32(Out, crc32(Record));
    Out += Record;
  }
  patchU64(Out, LengthOffset, Out.size());
  return Out;
}

/// Parses one entry record with every size field validated against the
/// bytes actually remaining, so corrupt fields cannot trigger huge
/// allocations or out-of-range shapes.
static Error readEntryRecord(Reader &Cursor, std::string &Name,
                             Tensor &Value) {
  uint32_t NameLength = 0;
  if (!Cursor.readU32(NameLength))
    return Error::failure("checkpoint truncated before entry name");
  if (NameLength > Cursor.remaining())
    return Error::failure("checkpoint entry name length " +
                          std::to_string(NameLength) +
                          " exceeds the remaining " +
                          std::to_string(Cursor.remaining()) + " bytes");
  Name.assign(NameLength, '\0');
  if (!Cursor.readBytes(Name.data(), NameLength))
    return Error::failure("checkpoint truncated in entry name");
  uint32_t Rank = 0;
  if (!Cursor.readU32(Rank) || Rank == 0 || Rank > 4)
    return Error::failure("checkpoint entry '" + Name +
                          "' has invalid rank");
  std::vector<int> Dims(Rank);
  uint64_t ElementCount = 1;
  for (uint32_t Axis = 0; Axis < Rank; ++Axis) {
    uint32_t Extent = 0;
    if (!Cursor.readU32(Extent) || Extent == 0 ||
        Extent > static_cast<uint32_t>(std::numeric_limits<int>::max()))
      return Error::failure("checkpoint entry '" + Name +
                            "' has invalid extent");
    Dims[Axis] = static_cast<int>(Extent);
    // Guard the product before multiplying: four rank-4 extents of up
    // to 2^31 would overflow uint64 bytes if multiplied blindly.
    const uint64_t MaxElements =
        std::numeric_limits<uint64_t>::max() / sizeof(float);
    if (ElementCount > MaxElements / Extent)
      return Error::failure("checkpoint entry '" + Name +
                            "' has an overflowing element count");
    ElementCount *= Extent;
  }
  const uint64_t ByteCount = ElementCount * sizeof(float);
  if (ByteCount > Cursor.remaining())
    return Error::failure("checkpoint entry '" + Name + "' claims " +
                          std::to_string(ByteCount) +
                          " payload bytes but only " +
                          std::to_string(Cursor.remaining()) + " remain");
  Value = Tensor{Shape(Dims)};
  if (!Cursor.readBytes(Value.data(), static_cast<size_t>(ByteCount)))
    return Error::failure("checkpoint truncated in entry '" + Name + "'");
  return Error::success();
}

Result<TensorBundle> wootz::deserializeTensors(const std::string &Bytes) {
  if (Bytes.size() < sizeof(Magic))
    return Error::failure("not a wootz checkpoint: too short");
  if (std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0)
    return Error::failure("not a wootz checkpoint: bad magic");
  Reader Cursor(Bytes);
  char Skipped[sizeof(Magic)];
  Cursor.readBytes(Skipped, sizeof(Skipped));
  uint64_t TotalLength = 0;
  if (!Cursor.readU64(TotalLength))
    return Error::failure("checkpoint truncated in header");
  if (TotalLength != Bytes.size())
    return Error::failure("checkpoint length mismatch: header says " +
                          std::to_string(TotalLength) + " bytes, file has " +
                          std::to_string(Bytes.size()));
  uint64_t EntryCount = 0;
  if (!Cursor.readU64(EntryCount))
    return Error::failure("checkpoint truncated in header");

  TensorBundle Bundle;
  for (uint64_t Entry = 0; Entry < EntryCount; ++Entry) {
    uint32_t ExpectedCrc = 0;
    if (!Cursor.readU32(ExpectedCrc))
      return Error::failure("checkpoint truncated before entry checksum");
    const size_t RecordStart = Cursor.offset();
    std::string Name;
    Tensor Value;
    if (Error E = readEntryRecord(Cursor, Name, Value))
      return E;
    const uint32_t ActualCrc = Cursor.crcSince(RecordStart);
    if (ActualCrc != ExpectedCrc)
      return Error::failure("checkpoint entry '" + Name +
                            "' fails its CRC32 check (stored " +
                            toHex(ExpectedCrc, 8) + ", computed " +
                            toHex(ActualCrc, 8) + ")");
    if (!Bundle.emplace(std::move(Name), std::move(Value)).second)
      return Error::failure("checkpoint contains a duplicate entry name");
  }
  if (Cursor.remaining() != 0)
    return Error::failure("checkpoint has " +
                          std::to_string(Cursor.remaining()) +
                          " trailing bytes after the last entry");
  return Bundle;
}

Error wootz::saveTensors(const std::string &Path,
                         const TensorBundle &Bundle) {
  return writeFileAtomic(Path, serializeTensors(Bundle));
}

Result<TensorBundle> wootz::loadTensors(const std::string &Path) {
  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream)
    return Error::failure("cannot open '" + Path + "' for reading");
  std::string Bytes((std::istreambuf_iterator<char>(Stream)),
                    std::istreambuf_iterator<char>());
  if (Stream.bad())
    return Error::failure("read from '" + Path + "' failed");
  return deserializeTensors(Bytes);
}
