#include "persist/log_scrubber.hh"

#include <algorithm>
#include <cstring>

#include "mem/mem_device.hh"
#include "persist/log_record.hh"
#include "persist/log_region.hh"
#include "sim/logging.hh"

namespace snf::persist
{

LogScrubber::LogScrubber(mem::MemDevice &nvram)
    : nvram(nvram),
      statGroup("scrub"),
      steps(statGroup.counter("steps")),
      slotsScanned(statGroup.counter("slots_scanned")),
      readBytes(statGroup.counter("read_bytes")),
      writeBytes(statGroup.counter("write_bytes")),
      repairs(statGroup.counter("repairs")),
      zeroed(statGroup.counter("zeroed")),
      uncorrectable(statGroup.counter("uncorrectable")),
      promotions(statGroup.counter("promotions")),
      bankRepairs(statGroup.counter("bank_repairs"))
{
}

void
LogScrubber::addRegion(LogRegion *region)
{
    regions.push_back(region);
}

std::uint64_t
LogScrubber::totalSlots() const
{
    std::uint64_t n = 0;
    for (const LogRegion *r : regions)
        n += r->slotCount();
    return n;
}

LogScrubber::SlotRef
LogScrubber::slotRef(std::uint64_t globalIndex) const
{
    for (LogRegion *r : regions) {
        if (globalIndex < r->slotCount())
            return SlotRef{r, globalIndex, r->slotAddr(globalIndex)};
        globalIndex -= r->slotCount();
    }
    SNF_ASSERT(false, "scrub index out of range");
    return SlotRef{nullptr, 0, 0};
}

std::uint32_t
LogScrubber::errorStreak(Addr line) const
{
    auto it = streaks.find(line);
    return it == streaks.end() ? 0 : it->second;
}

void
LogScrubber::scrubSlot(const SlotRef &ref, Tick now)
{
    std::uint8_t img[LogRecord::kSlotBytes];
    nvram.access(false, ref.addr, sizeof(img), nullptr, img, now);
    readBytes.inc(sizeof(img));
    slotsScanned.inc();

    SlotInfo si = classifySlot(img);
    if (si.cls == SlotClass::Empty || si.cls == SlotClass::Valid)
        return;

    // Damage observed: count it against the line. (Torn here means a
    // nonzero slot without its written marker — a flipped marker bit
    // looks torn, so both damage classes get a correction attempt.)
    Addr line = ref.addr & ~static_cast<Addr>(63);
    std::uint32_t streak = ++streaks[line];

    // Attempt single-bit correction: flip each of the 256 slot bits
    // and accept the unique flip that makes the slot parse and its
    // CRC check out. The corrected bytes equal what was logged, so
    // rewriting a live slot is safe by construction.
    bool corrected = false;
    for (std::uint32_t bit = 0;
         !corrected && bit < LogRecord::kSlotBytes * 8; ++bit) {
        img[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        if (classifySlot(img).cls == SlotClass::Valid)
            corrected = true;
        else
            img[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }

    if (corrected) {
        nvram.access(true, ref.addr, sizeof(img), img, nullptr, now,
                     true, PersistOrigin::Meta);
        writeBytes.inc(sizeof(img));
        repairs.inc();
    } else if (!ref.region->slotLive(ref.slot)) {
        // Multi-bit damage in a dead slot: zero it so recovery sees a
        // clean hole instead of noise to bridge.
        std::uint8_t zeros[LogRecord::kSlotBytes] = {};
        nvram.access(true, ref.addr, sizeof(zeros), zeros, nullptr,
                     now, true, PersistOrigin::Meta);
        writeBytes.inc(sizeof(zeros));
        zeroed.inc();
    } else {
        // Live and uncorrectable: recovery's salvage/quarantine logic
        // owns the verdict; destroying the slot would destroy it.
        uncorrectable.inc();
    }

    if (streak >= kPromoteThreshold) {
        if (nvram.remapLine(line, now)) {
            promotions.inc();
            // remapLine's table persist is priority write traffic.
            writeBytes.inc(mem::RemapTable::kLineBytes);
        }
        streaks.erase(line);
    }
}

void
LogScrubber::checkRemapRedundancy(Tick now)
{
    mem::RemapTable *remap = nvram.remap();
    // A never-persisted table has nothing to protect; repairing it
    // would spuriously create bank 1 of an empty mapping.
    if (!remap || remap->seq() == 0)
        return;
    if (remap->validBanks(nvram.store()) >= 2)
        return;
    // One bank lost its CRC (decay, a crash mid-update that was
    // since resolved, or scribble): re-publish the current state into
    // the inactive bank to restore dual-bank redundancy.
    bool ok = remap->persist(
        [this, now](Addr a, std::uint64_t n, const void *d) {
            nvram.access(true, a, n, d, nullptr, now, true,
                         PersistOrigin::Meta);
            writeBytes.inc(n);
        });
    SNF_ASSERT(ok, "uncapped bank repair cannot fail");
    bankRepairs.inc();
}

void
LogScrubber::step(Tick now)
{
    std::uint64_t total = totalSlots();
    if (total == 0)
        return;
    steps.inc();
    // Scanning total/8 per step would re-read the log as fast as it
    // can be written and starve the workload behind scrub traffic.
    const std::uint64_t chunk =
        std::max<std::uint64_t>(1, total / kStepsPerWalk);
    for (std::uint64_t i = 0; i < chunk; ++i) {
        scrubSlot(slotRef(cursor), now);
        cursor = (cursor + 1) % total;
    }
    checkRemapRedundancy(now);
}

void
LogScrubber::scrubAll(Tick now)
{
    std::uint64_t total = totalSlots();
    for (std::uint64_t i = 0; i < total; ++i) {
        scrubSlot(slotRef(cursor), now);
        cursor = (cursor + 1) % total;
    }
    checkRemapRedundancy(now);
}

void
LogScrubber::start(sim::EventQueue &events, Tick period, Tick now)
{
    SNF_ASSERT(period > 0, "scrub period must be positive");
    running = true;
    stepPeriod = period;
    scheduleNext(events, now);
}

void
LogScrubber::scheduleNext(sim::EventQueue &events, Tick now)
{
    events.schedule(now + stepPeriod, [this, &events](Tick when) {
        if (!running)
            return;
        step(when);
        scheduleNext(events, when);
    });
}

} // namespace snf::persist
