/**
 * @file
 * In-memory span recorder of the snf benchmark. Each span has a name,
 * a host start and end, the span that was open when it began (its
 * parent) and a run id; the name's prefix before the first '.' is the
 * layer it charges (core, oltp, persist, mem, crashlab, bench). Spans
 * stay in memory until the benchmark ends and are then written once,
 * in Chrome trace-event JSON, so any trace viewer nests them.
 *
 * A null Tracer pointer records nothing: the untraced run passes null
 * and pays one branch per span.
 */

#ifndef SNFBENCH_TRACE_HH
#define SNFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace snfbench
{

/** One recorded span (times in microseconds since tracer creation). */
struct Span
{
    std::string name;
    double startUs = 0;
    double endUs = 0;
    /** Index of the enclosing span in Tracer::spans(); -1 at the root. */
    long parent = -1;
    std::uint64_t run = 0;
};

/** See file comment. */
class Tracer
{
  public:
    /** Start a new run id; spans opened afterwards carry it. */
    void beginRun() { ++runId; }

    /** Open a span under the innermost open one; returns its index. */
    std::size_t open(const char *name);

    /** Close the span @p idx, the innermost open one. */
    void close(std::size_t idx);

    const std::vector<Span> &spans() const { return recorded; }

    /**
     * Host seconds each layer spent outside its child spans: a span's
     * duration minus the part of it that its direct children cover,
     * summed per layer over the spans recorded from index @p first on.
     */
    std::map<std::string, double>
    selfSecondsByLayer(std::size_t first = 0) const;

    /** Write every span as Chrome trace-event JSON ("X" events). */
    void writeChromeJson(std::ostream &os) const;

  private:
    double nowUs() const;

    std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
    std::vector<Span> recorded;
    std::vector<std::size_t> openStack;
    std::uint64_t runId = 0;
};

/** RAII span; records nothing when the tracer is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name)
        : tracer(t), idx(t ? t->open(name) : 0)
    {
    }

    ~ScopedSpan()
    {
        if (tracer)
            tracer->close(idx);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer;
    std::size_t idx;
};

} // namespace snfbench

#endif // SNFBENCH_TRACE_HH
