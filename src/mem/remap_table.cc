#include "mem/remap_table.hh"

#include <algorithm>
#include <cstring>

#include "mem/backing_store.hh"
#include "sim/crc32.hh"
#include "sim/logging.hh"

namespace snf::mem
{

RemapTable::RemapTable(Addr remapBase, std::uint64_t remapSize,
                       Addr spareBase, std::uint64_t spareSize)
    : regionBase(remapBase),
      regionSize(remapSize),
      spareRegionBase(spareBase),
      spareRegionSize(spareSize)
{
    SNF_ASSERT(remapSize % (2 * kLineBytes) == 0,
               "remap region size %llu not bank-splittable",
               static_cast<unsigned long long>(remapSize));
    SNF_ASSERT(bankBytes() >= kHeaderBytes,
               "remap bank smaller than its header");
}

Addr
RemapTable::bankBase(std::uint32_t bank) const
{
    SNF_ASSERT(bank < 2, "remap bank %u out of range", bank);
    return regionBase + bank * bankBytes();
}

std::uint64_t
RemapTable::capacity() const
{
    std::uint64_t by_bank = (bankBytes() - kHeaderBytes) / kEntryBytes;
    std::uint64_t by_spares = spareRegionSize / kLineBytes;
    return std::min(by_bank, by_spares);
}

std::optional<Addr>
RemapTable::find(Addr lineAddr) const
{
    for (const Entry &e : table)
        if (e.orig == lineAddr)
            return e.spare;
    return std::nullopt;
}

std::optional<Addr>
RemapTable::add(Addr lineAddr)
{
    SNF_ASSERT((lineAddr & (kLineBytes - 1)) == 0,
               "remap of unaligned line %llx",
               static_cast<unsigned long long>(lineAddr));
    if (full() || find(lineAddr))
        return std::nullopt;
    Addr spare = spareRegionBase +
                 static_cast<Addr>(table.size()) * kLineBytes;
    table.push_back(Entry{lineAddr, spare});
    return spare;
}

std::vector<std::uint8_t>
RemapTable::serializeBank(std::uint64_t seq) const
{
    std::uint64_t n = table.size();
    std::vector<std::uint8_t> buf(kHeaderBytes + n * kEntryBytes, 0);
    std::memcpy(buf.data(), &kMagic, 8);
    std::memcpy(buf.data() + 8, &seq, 8);
    std::memcpy(buf.data() + 16, &n, 8);
    std::memcpy(buf.data() + 24, &heapCursor, 8);
    std::memcpy(buf.data() + 32, &generation, 8);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint8_t *e = buf.data() + kHeaderBytes + i * kEntryBytes;
        std::memcpy(e, &table[i].orig, 8);
        std::memcpy(e + 8, &table[i].spare, 8);
    }
    // CRC over the whole serialized state with the CRC field zero.
    std::uint32_t crc = sim::crc32(buf.data(), buf.size());
    std::memcpy(buf.data() + 40, &crc, 4);
    return buf;
}

bool
RemapTable::persist(const WriteFn &write, std::uint64_t maxWrites)
{
    std::uint64_t next_seq = seqNo + 1;
    std::vector<std::uint8_t> buf = serializeBank(next_seq);
    Addr bank = bankBase(static_cast<std::uint32_t>(next_seq % 2));
    SNF_ASSERT(buf.size() <= bankBytes(),
               "remap table overflows its bank");

    // Entry area first (64-byte chunks, ascending), header last: any
    // interrupted prefix leaves the bank without a matching CRC.
    std::uint64_t issued = 0;
    for (std::uint64_t off = kHeaderBytes; off < buf.size();
         off += kLineBytes) {
        if (issued >= maxWrites)
            return false;
        std::uint64_t n =
            std::min<std::uint64_t>(kLineBytes, buf.size() - off);
        write(bank + off, n, buf.data() + off);
        ++issued;
    }
    if (issued >= maxWrites)
        return false;
    write(bank, kHeaderBytes, buf.data());
    seqNo = next_seq;
    return true;
}

bool
RemapTable::parseBank(const BackingStore &img, std::uint32_t bank,
                      std::uint64_t &seqOut,
                      std::vector<Entry> &entriesOut,
                      std::uint64_t &cursorOut,
                      std::uint64_t &generationOut) const
{
    Addr base = bankBase(bank);
    std::uint8_t hdr[kHeaderBytes];
    img.read(base, kHeaderBytes, hdr);
    std::uint64_t magic, seq, n, cursor, gen;
    std::uint32_t crc;
    std::memcpy(&magic, hdr, 8);
    std::memcpy(&seq, hdr + 8, 8);
    std::memcpy(&n, hdr + 16, 8);
    std::memcpy(&cursor, hdr + 24, 8);
    std::memcpy(&gen, hdr + 32, 8);
    std::memcpy(&crc, hdr + 40, 4);
    if (magic != kMagic || seq == 0 ||
        n > (bankBytes() - kHeaderBytes) / kEntryBytes)
        return false;

    std::vector<std::uint8_t> buf(kHeaderBytes + n * kEntryBytes);
    img.read(base, buf.size(), buf.data());
    std::memset(buf.data() + 40, 0, 4);
    if (sim::crc32(buf.data(), buf.size()) != crc)
        return false;

    entriesOut.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        Entry e;
        std::memcpy(&e.orig, buf.data() + kHeaderBytes +
                                 i * kEntryBytes, 8);
        std::memcpy(&e.spare, buf.data() + kHeaderBytes +
                                  i * kEntryBytes + 8, 8);
        entriesOut.push_back(e);
    }
    seqOut = seq;
    cursorOut = cursor;
    generationOut = gen;
    return true;
}

RemapTable::LoadResult
RemapTable::load(const BackingStore &img)
{
    LoadResult res;
    std::uint64_t best_seq = 0, cursor = 0, gen = 0;
    std::vector<Entry> best;
    for (std::uint32_t b = 0; b < 2; ++b) {
        std::uint64_t seq, c, g;
        std::vector<Entry> e;
        if (parseBank(img, b, seq, e, c, g) && seq > best_seq) {
            best_seq = seq;
            best = std::move(e);
            cursor = c;
            gen = g;
        }
    }
    if (best_seq == 0) {
        // Distinguish never-written from damaged: a fresh region is
        // all zero.
        std::vector<std::uint8_t> raw(regionSize);
        img.read(regionBase, regionSize, raw.data());
        bool nonzero = std::any_of(raw.begin(), raw.end(),
                                   [](std::uint8_t v) { return v; });
        res.fresh = !nonzero;
        res.corrupted = nonzero;
        seqNo = 0;
        table.clear();
        heapCursor = 0;
        generation = 0;
        return res;
    }
    seqNo = best_seq;
    table = std::move(best);
    heapCursor = cursor;
    generation = gen;
    res.entriesLoaded = table.size();
    return res;
}

std::uint32_t
RemapTable::validBanks(const BackingStore &img) const
{
    std::uint32_t valid = 0;
    for (std::uint32_t b = 0; b < 2; ++b) {
        std::uint64_t seq, c, g;
        std::vector<Entry> e;
        if (parseBank(img, b, seq, e, c, g))
            ++valid;
    }
    return valid;
}

bool
RemapTable::wellFormed() const
{
    if (table.size() > capacity())
        return false;
    for (std::size_t i = 0; i < table.size(); ++i) {
        const Entry &e = table[i];
        if ((e.orig & (kLineBytes - 1)) != 0)
            return false;
        // Original lines must live outside the remap/spare metadata
        // (remapping the table through itself would recurse).
        if (e.orig >= regionBase &&
            e.orig < spareRegionBase + spareRegionSize)
            return false;
        if (e.spare != spareRegionBase +
                           static_cast<Addr>(i) * kLineBytes)
            return false;
        for (std::size_t j = 0; j < i; ++j)
            if (table[j].orig == e.orig)
                return false;
    }
    return true;
}

void
RemapTable::sabotage(BackingStore &img, Addr remapBase,
                     std::uint64_t remapSize)
{
    // Garbage magic in both bank headers: no bank can validate and
    // the region is manifestly nonzero, so load() must report
    // corruption rather than silently starting fresh.
    std::uint64_t garbage = 0xdeadbeefcafef00dULL;
    img.write64(remapBase, garbage);
    img.write64(remapBase + remapSize / 2, garbage);
}

} // namespace snf::mem
