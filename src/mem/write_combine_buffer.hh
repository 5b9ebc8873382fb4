/**
 * @file
 * Write-combining buffer for uncacheable stores (software log writes).
 *
 * Models the four-to-six entry cache-line-sized WCB of x86 processors
 * that the paper's software logging schemes write their uncacheable
 * log updates through (Sections II-B and III-A).
 */

#ifndef SNF_MEM_WRITE_COMBINE_BUFFER_HH
#define SNF_MEM_WRITE_COMBINE_BUFFER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/mem_device.hh"
#include "sim/probe.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snf::mem
{

/**
 * A small FIFO of line-sized write-combining entries draining to one
 * memory device. Stores to an open line coalesce; allocating a new
 * line when full evicts (flushes) the oldest entry.
 */
class WriteCombineBuffer
{
  public:
    WriteCombineBuffer(MemDevice &device, std::uint32_t entries,
                       std::uint32_t lineBytes);

    /**
     * Append an uncacheable store of @p size <= 8 bytes.
     * @return the tick at which the issuing core may proceed (stalls
     *         only when the buffer is full of in-flight flushes).
     */
    Tick append(Addr addr, std::uint32_t size, const void *data,
                Tick now);

    /** Flush everything (fence); returns the last completion tick. */
    Tick drainAll(Tick now);

    /** Drop all un-flushed contents (crash model). */
    void dropAll();

    std::size_t occupancy() const { return count; }

    /** Crash-tooling probe: WcbFlush at each flush completion. */
    void setProbe(sim::ProbeFn p) { probe = std::move(p); }

    sim::StatGroup &stats() { return statGroup; }

  private:
    struct Entry
    {
        Addr lineAddr = 0;
        std::uint32_t lo = 0; ///< lowest dirty byte offset in line
        std::uint32_t hi = 0; ///< one past highest dirty byte offset
        std::uint8_t *data = nullptr; ///< its line in lineData
    };

    /** Flush the oldest entry; returns its completion tick. */
    Tick flushOldest(Tick now);

    MemDevice &dev;
    std::uint32_t capacity;
    std::uint32_t lineBytes;
    /** The FIFO: `count` entries from `head`, wrapping. Each slot
     *  keeps the line buffer it was given at construction. */
    std::vector<Entry> ring;
    std::vector<std::uint8_t> lineData;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    /** Completion ticks of issued flushes still in flight. */
    std::deque<Tick> inflight;
    /** Completion tick of the last flush; the next one starts no
     *  earlier, since flushes leave one at a time. */
    Tick lastDone = 0;
    sim::ProbeFn probe;
    sim::StatGroup statGroup; // must precede the counter references

  public:
    sim::Counter &coalescedStores;
    sim::Counter &flushes;
    /** Sum over flushes of issue - request tick: the wait for the
     *  one port behind the flushes issued before. */
    sim::Counter &flushWaitCycles;
    /** Sum over drains of completion - request tick. */
    sim::Counter &drainWaitCycles;
};

} // namespace snf::mem

#endif // SNF_MEM_WRITE_COMBINE_BUFFER_HH
