#include "storage/crc32.h"

#include <array>
#include <cstddef>

namespace svqa::storage {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8: kTables[0] is the classic byte-at-a-time table;
// kTables[k][b] is the CRC contribution of byte b followed by k zero
// bytes, so eight input bytes fold into the register with eight
// independent lookups instead of eight dependent ones.
constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? kPolynomial ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Little-endian load independent of host byte order (compiles to one
// load on little-endian targets).
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace svqa::storage
