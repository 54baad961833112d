#include "common/checksum.h"

#include <array>

namespace kona {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table,
 * and tables[k][b] is the CRC contribution of byte b followed by k
 * zero bytes, so eight table lookups retire eight input bytes.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
        }
    }
    return tables;
}

constexpr CrcTables crcTables = makeCrcTables();

/** Little-endian 32-bit load (compilers fuse it into one mov). */
inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    const CrcTables &t = crcTables;
    std::uint32_t c = seed ^ 0xffffffffu;
    for (; len >= 8; bytes += 8, len -= 8) {
        std::uint32_t lo = c ^ loadLe32(bytes);
        std::uint32_t hi = loadLe32(bytes + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++bytes, --len)
        c = t[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace kona
