/**
 * @file
 * CRC32 (reflected, poly 0xEDB88320) shared by every CRC-protected
 * persistent structure: log-record slots (persist/) and the remap
 * table banks (mem/). One polynomial, so one hardware CRC unit would
 * serve both.
 */

#ifndef SNF_SIM_CRC32_HH
#define SNF_SIM_CRC32_HH

#include <cstdint>

namespace snf::sim
{

/**
 * CRC32 of @p n bytes at @p data, continuing from @p crc (the CRC of
 * the bytes before them; 0 to start). Chaining is exact:
 * crc32(b, nb, crc32(a, na)) == crc32(a ++ b, na + nb). Slice-by-8:
 * eight bytes per step through eight 256-entry tables, bytewise for
 * the tail; no alignment required.
 */
std::uint32_t crc32(const void *data, std::uint64_t n,
                    std::uint32_t crc = 0);

} // namespace snf::sim

#endif // SNF_SIM_CRC32_HH
