#include "mem/fault_model.hh"

#include <algorithm>
#include <cstring>

namespace snf::mem
{

namespace
{

// Hash salts: one namespace per independent decision so that e.g. the
// drop and torn decisions for the same line/tick are uncorrelated.
constexpr std::uint64_t kSaltDrop = 0x1;
constexpr std::uint64_t kSaltTorn = 0x2;
constexpr std::uint64_t kSaltMulti = 0x3;
constexpr std::uint64_t kSaltFlip = 0x4;
constexpr std::uint64_t kSaltStuckRow = 0x5;
constexpr std::uint64_t kSaltStuckVal = 0x6;
constexpr std::uint64_t kSaltStuckOff = 0x7;
constexpr std::uint64_t kSaltBitPos = 0x8;
constexpr std::uint64_t kSaltBitPos2 = 0x9;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t
FaultInjector::hash(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return splitmix64(splitmix64(splitmix64(a) ^ b) ^ c);
}

double
FaultInjector::unit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool
FaultInjector::inScope(Addr lineAddr) const
{
    return cfg.regionSize == 0 ||
           (lineAddr + kLineBytes > cfg.regionBase &&
            lineAddr < cfg.regionBase + cfg.regionSize);
}

bool
FaultInjector::rowIsStuck(std::uint64_t row) const
{
    if (cfg.stuckRowProb <= 0.0)
        return false;
    return unit(hash(cfg.seed, row, kSaltStuckRow)) < cfg.stuckRowProb;
}

std::uint64_t
FaultInjector::stuckValue(std::uint64_t row) const
{
    return hash(cfg.seed, row, kSaltStuckVal);
}

std::uint64_t
FaultInjector::stuckWordOffset(std::uint64_t row) const
{
    std::uint64_t words = std::max<std::uint64_t>(rowBytes / 8, 1);
    return (hash(cfg.seed, row, kSaltStuckOff) % words) * 8;
}

FaultCounters
FaultInjector::apply(Addr addr, std::uint64_t size, std::uint8_t *buf,
                     const std::uint8_t *oldData, Tick tick) const
{
    FaultCounters counts;
    Addr end = addr + size;
    for (Addr line = addr & ~(kLineBytes - 1); line < end;
         line += kLineBytes) {
        // Intersection of the write with this 64-byte line, as
        // offsets into buf/oldData.
        std::uint64_t lo = line > addr ? line - addr : 0;
        std::uint64_t hi =
            std::min<std::uint64_t>(size, line + kLineBytes - addr);
        std::uint64_t span = hi - lo;

        // Stuck rows wedge their word regardless of the scope region:
        // the cell is physically worn out, not transiently upset.
        std::uint64_t row = line / rowBytes * rowBytes;
        if (cfg.stuckRowProb > 0.0 && rowIsStuck(row / rowBytes)) {
            Addr word = row + stuckWordOffset(row / rowBytes);
            if (word < addr + hi && word + 8 > addr + lo) {
                std::uint64_t v = stuckValue(row / rowBytes);
                const std::uint8_t *vb =
                    reinterpret_cast<const std::uint8_t *>(&v);
                for (std::uint64_t i = 0; i < 8; ++i) {
                    Addr byte = word + i;
                    if (byte >= addr + lo && byte < addr + hi)
                        buf[byte - addr] = vb[byte - word];
                }
                ++counts.stuckWords;
            }
        }

        if (!inScope(line))
            continue;
        counts.examinedBytes += span;

        if (cfg.dropWriteProb > 0.0 &&
            unit(hash(cfg.seed ^ line, tick, kSaltDrop)) <
                cfg.dropWriteProb) {
            // The controller accepted the write but the program pulse
            // never landed: the old contents survive.
            std::memcpy(buf + lo, oldData + lo, span);
            ++counts.droppedWrites;
            continue;
        }

        if (cfg.tornLineProb > 0.0 &&
            unit(hash(cfg.seed ^ line, tick, kSaltTorn)) <
                cfg.tornLineProb) {
            // Only the first half-line programs; the tail keeps its
            // old contents.
            Addr torn_from = line + kTornBytes;
            for (std::uint64_t i = lo; i < hi; ++i) {
                if (addr + i >= torn_from)
                    buf[i] = oldData[i];
            }
            ++counts.tornLines;
            continue;
        }

        std::uint64_t bits = span * 8;
        if (cfg.multiBitProb > 0.0 &&
            unit(hash(cfg.seed ^ line, tick, kSaltMulti)) <
                cfg.multiBitProb) {
            std::uint64_t b1 =
                hash(cfg.seed ^ line, tick, kSaltBitPos) % bits;
            std::uint64_t b2 = bits > 1
                ? (b1 + 1 +
                   hash(cfg.seed ^ line, tick, kSaltBitPos2) %
                       (bits - 1)) % bits
                : b1;
            buf[lo + b1 / 8] ^= std::uint8_t(1u << (b1 % 8));
            if (b2 != b1)
                buf[lo + b2 / 8] ^= std::uint8_t(1u << (b2 % 8));
            ++counts.multiBit;
            continue;
        }

        if (cfg.bitFlipProb > 0.0 &&
            unit(hash(cfg.seed ^ line, tick, kSaltFlip)) <
                cfg.bitFlipProb) {
            std::uint64_t b =
                hash(cfg.seed ^ line, tick, kSaltBitPos) % bits;
            buf[lo + b / 8] ^= std::uint8_t(1u << (b % 8));
            ++counts.bitFlips;
        }
    }
    return counts;
}

} // namespace snf::mem
