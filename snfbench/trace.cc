#include "trace.hh"

#include <iomanip>

namespace snfbench
{

namespace
{

/** Layer of a span name: the prefix before the first '.'. */
std::string
layerOf(const std::string &spanName)
{
    return spanName.substr(0, spanName.find('.'));
}

} // namespace

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

std::size_t
Tracer::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = openStack.empty() ? -1 : static_cast<long>(openStack.back());
    s.run = runId;
    s.startUs = nowUs();
    recorded.push_back(std::move(s));
    openStack.push_back(recorded.size() - 1);
    return recorded.size() - 1;
}

void
Tracer::close(std::size_t idx)
{
    // ScopedSpan keeps spans nested, so idx is the innermost open span.
    recorded[idx].endUs = nowUs();
    openStack.pop_back();
}

std::map<std::string, double>
Tracer::selfSecondsByLayer(std::size_t first) const
{
    std::vector<double> childUs(recorded.size(), 0.0);
    for (const Span &s : recorded)
        if (s.parent >= 0)
            childUs[s.parent] += s.endUs - s.startUs;
    std::map<std::string, double> self;
    for (std::size_t i = first; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        self[layerOf(s.name)] += (s.endUs - s.startUs - childUs[i]) * 1e-6;
    }
    return self;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    os << std::fixed << std::setprecision(3);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"cat\": \"" << layerOf(s.name)
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << s.startUs << ", \"dur\": " << (s.endUs - s.startUs)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"run\": " << s.run << "}}";
    }
    os << "\n]}\n";
}

} // namespace snfbench
