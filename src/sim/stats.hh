/**
 * @file
 * Lightweight named-statistics framework (gem5 Stats package, reduced).
 *
 * Components own a StatGroup; each registered Counter/Scalar appears in
 * the group's dump and can be queried by name for tests and benches.
 */

#ifndef SNF_SIM_STATS_HH
#define SNF_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace snf::sim
{

class StatGroup;

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { count += n; }

    /** Keep the largest value seen (a high-water mark). */
    void raiseTo(std::uint64_t v) { count = v > count ? v : count; }

    std::uint64_t value() const { return count; }

    void reset() { count = 0; }

  private:
    std::uint64_t count = 0;
};

/** A plain readable/writable scalar statistic. */
class Scalar
{
  public:
    Scalar() = default;

    void set(double v) { val = v; }

    void add(double v) { val += v; }

    double value() const { return val; }

    void reset() { val = 0.0; }

  private:
    double val = 0.0;
};

/**
 * A named collection of statistics. Groups can nest; dump() emits
 * "group.sub.stat = value" lines.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);

    /** Register (or fetch) a counter under @p name. */
    Counter &counter(const std::string &name);

    /** Register (or fetch) a scalar under @p name. */
    Scalar &scalar(const std::string &name);

    /** Attach a child group; lifetime managed by the caller. */
    void addChild(StatGroup *child);

    /** Counter value by name; 0 if absent. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Scalar value by name; 0.0 if absent. */
    double scalarValue(const std::string &name) const;

    /** Reset all stats in this group and children. */
    void resetAll();

    /** Emit all stats, prefixed by the group path. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    const std::string &name() const { return groupName; }

  private:
    std::string groupName;
    std::map<std::string, Counter> counters;
    std::map<std::string, Scalar> scalars;
    std::vector<StatGroup *> children;
};

} // namespace snf::sim

#endif // SNF_SIM_STATS_HH
