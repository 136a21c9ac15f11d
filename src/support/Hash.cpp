//===- support/Hash.cpp ----------------------------------------------------===//

#include "src/support/Hash.h"

#include <array>

using namespace wootz;

namespace {

std::array<uint32_t, 256> makeCrcTable() {
  std::array<uint32_t, 256> Table{};
  for (uint32_t Byte = 0; Byte < 256; ++Byte) {
    uint32_t Crc = Byte;
    for (int Bit = 0; Bit < 8; ++Bit)
      Crc = (Crc >> 1) ^ ((Crc & 1u) ? 0xedb88320u : 0u);
    Table[Byte] = Crc;
  }
  return Table;
}

} // namespace

uint32_t wootz::crc32(const void *Data, size_t Size, uint32_t Seed) {
  static const std::array<uint32_t, 256> Table = makeCrcTable();
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint32_t Crc = ~Seed;
  for (size_t I = 0; I < Size; ++I)
    Crc = (Crc >> 8) ^ Table[(Crc ^ Bytes[I]) & 0xffu];
  return ~Crc;
}

Fnv1a &Fnv1a::mixBytes(const void *Data, size_t Size) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    State ^= Bytes[I];
    State *= 0x100000001b3ull;
  }
  return *this;
}

uint64_t wootz::fnv1a(std::string_view Text) {
  return Fnv1a().mix(Text).digest();
}

std::string wootz::toHex(uint64_t Value, int Digits) {
  static const char Alphabet[] = "0123456789abcdef";
  std::string Out(static_cast<size_t>(Digits), '0');
  for (int I = Digits - 1; I >= 0; --I) {
    Out[I] = Alphabet[Value & 0xf];
    Value >>= 4;
  }
  return Out;
}
