#include "sim/crc32.hh"

#include <array>
#include <bit>
#include <cstring>

namespace snf::sim
{

namespace
{

// The word step loads eight bytes with one memcpy and consumes the
// lowest-addressed byte first, which is the low byte only on a
// little-endian host (the same assumption the record layouts make).
static_assert(std::endian::native == std::endian::little,
              "slice-by-8 CRC assumes a little-endian host");

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * t[0] is the classic bytewise table; t[k][b] is the CRC contribution
 * of byte b followed by k zero bytes, so one XOR of eight lookups
 * advances the CRC by a whole word.
 */
constexpr Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int b = 0; b < 8; ++b)
            c = (c >> 1) ^ (0xedb88320u & (~(c & 1u) + 1u));
        t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
        for (int k = 1; k < 8; ++k)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr Tables kTables = makeTables();

} // namespace

std::uint32_t
crc32(const void *data, std::uint64_t n, std::uint32_t crc)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    crc = ~crc;
    for (; n >= 8; n -= 8, p += 8) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        w ^= crc;
        crc = kTables[7][w & 0xffu] ^ kTables[6][(w >> 8) & 0xffu] ^
              kTables[5][(w >> 16) & 0xffu] ^
              kTables[4][(w >> 24) & 0xffu] ^
              kTables[3][(w >> 32) & 0xffu] ^
              kTables[2][(w >> 40) & 0xffu] ^
              kTables[1][(w >> 48) & 0xffu] ^ kTables[0][w >> 56];
    }
    for (; n > 0; --n, ++p)
        crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xffu];
    return ~crc;
}

} // namespace snf::sim
