/**
 * @file
 * Flat per-line bookkeeping: a hash table from a 64-bit key (a cache
 * line address, a transaction sequence or ID, or a log slot address)
 * to a small value, with no allocation per entry.
 *
 * The simulator keeps several facts per line on its hottest paths:
 * the bus monitor's last write-back tick and pending log records, the
 * CC layer's lock owner and commit version. A node-based map pays one
 * allocation per new key and a pointer chase per probe. This table
 * uses open addressing with linear probing over a power-of-two array;
 * keys and values live in parallel arrays, so an entry costs no
 * allocation of its own and a probe reads consecutive words. It grows
 * by doubling once three-quarters full.
 *
 * Any key but kFree (all ones, which no address, sequence number or
 * ID reaches) is legal, including 0 and line addresses outside
 * NVRAM.
 */

#ifndef SNF_SIM_LINE_TABLE_HH
#define SNF_SIM_LINE_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace snf::sim
{

/**
 * See file comment. Pointers and references to values stay valid
 * until the next insertion (which may grow the arrays) or erase
 * (which may shift entries).
 */
template <typename V>
class LineTable
{
  public:
    /** The key value that marks a free slot; not a legal key. */
    static constexpr Addr kFree = ~Addr{0};

    LineTable() { allocate(16); }

    std::size_t size() const { return used; }

    /** Slots in the probe array (a power of two). */
    std::size_t capacity() const { return mask + 1; }

    /** The value stored for @p key, or nullptr. Never inserts. */
    const V *
    find(Addr key) const
    {
        std::size_t i = locate(key);
        return i == kAbsent ? nullptr : &vals[i];
    }

    V *
    find(Addr key)
    {
        std::size_t i = locate(key);
        return i == kAbsent ? nullptr : &vals[i];
    }

    bool contains(Addr key) const { return locate(key) != kAbsent; }

    /** The value for @p key, inserting V{} first when absent. */
    V &operator[](Addr key) { return vals[emplace(key).first]; }

    /** Insert @p key (value V{}) unless present; true if it was new. */
    bool insert(Addr key) { return emplace(key).second; }

    /**
     * Remove @p key; false if it was absent. Linear-probing deletion
     * by backward shift: every later entry of the probe run that may
     * move into the hole does, so no tombstones accumulate.
     */
    bool
    erase(Addr key)
    {
        std::size_t hole = locate(key);
        if (hole == kAbsent)
            return false;
        for (std::size_t j = next(hole); keys[j] != kFree; j = next(j)) {
            // The entry at j may fill the hole iff the hole lies on
            // its probe path, i.e. between its home slot and j.
            if (((j - home(keys[j])) & mask) >= ((j - hole) & mask)) {
                keys[hole] = keys[j];
                vals[hole] = std::move(vals[j]);
                hole = j;
            }
        }
        keys[hole] = kFree;
        --used;
        return true;
    }

    /** Remove every entry, keeping the capacity. */
    void
    clear()
    {
        std::fill(keys.begin(), keys.end(), kFree);
        used = 0;
    }

  private:
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    std::size_t next(std::size_t i) const { return (i + 1) & mask; }

    /** Fibonacci hashing: the product's top bits, which every key
     *  bit reaches (line addresses have six zero low bits). */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift);
    }

    std::size_t
    locate(Addr key) const
    {
        SNF_ASSERT(key != kFree, "line table key %#llx is the free marker",
                   static_cast<unsigned long long>(key));
        for (std::size_t i = home(key);; i = next(i)) {
            if (keys[i] == key)
                return i;
            if (keys[i] == kFree)
                return kAbsent;
        }
    }

    /** Slot of @p key, inserted with V{} if absent; true if new. */
    std::pair<std::size_t, bool>
    emplace(Addr key)
    {
        SNF_ASSERT(key != kFree, "line table key %#llx is the free marker",
                   static_cast<unsigned long long>(key));
        std::size_t i = home(key);
        for (; keys[i] != kFree; i = next(i))
            if (keys[i] == key)
                return {i, false};
        if (4 * (used + 1) > 3 * capacity()) {
            grow();
            for (i = home(key); keys[i] != kFree; i = next(i)) {
            }
        }
        keys[i] = key;
        vals[i] = V{};
        ++used;
        return {i, true};
    }

    void
    allocate(std::size_t cap)
    {
        keys.assign(cap, kFree);
        vals.assign(cap, V{});
        mask = cap - 1;
        shift = 64 - static_cast<unsigned>(std::countr_zero(cap));
    }

    void
    grow()
    {
        std::size_t oldCap = capacity();
        std::vector<Addr> oldKeys = std::move(keys);
        std::vector<V> oldVals = std::move(vals);
        allocate(2 * oldCap);
        for (std::size_t j = 0; j < oldCap; ++j) {
            if (oldKeys[j] == kFree)
                continue;
            std::size_t i = home(oldKeys[j]);
            while (keys[i] != kFree)
                i = next(i);
            keys[i] = oldKeys[j];
            vals[i] = std::move(oldVals[j]);
        }
    }

    std::vector<Addr> keys;
    std::vector<V> vals;
    std::size_t mask = 0;
    unsigned shift = 0;
    std::size_t used = 0;
};

/** A set of lines: the table with an empty value. */
struct NoValue
{
};

using LineSet = LineTable<NoValue>;

} // namespace snf::sim

#endif // SNF_SIM_LINE_TABLE_HH
