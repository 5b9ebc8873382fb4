#include "oltp/engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snf::oltp
{

sim::Co<void>
TxExec::load(Addr a, std::uint64_t *out)
{
    *out = 0;
    if (isDoomed)
        co_return;
    // A probe granted in place needs no txLoad64 frame.
    if (th.ccGrantedInPlace(a, false)) {
        *out = co_await th.load64(a);
        co_return;
    }
    bool ok = co_await th.txLoad64(a, out);
    if (!ok) {
        isDoomed = true;
        *out = 0;
    }
}

sim::Co<void>
TxExec::store(Addr a, std::uint64_t v)
{
    if (isDoomed)
        co_return;
    if (defer) {
        buf.emplace_back(a, v);
        co_return;
    }
    if (th.ccGrantedInPlace(a, true)) { // see load
        co_await th.store64(a, v);
        co_return;
    }
    bool ok = co_await th.txStore64(a, v);
    if (!ok)
        isDoomed = true;
}

sim::Co<void>
TxExec::finish()
{
    if (isDoomed || !defer)
        co_return;
    // Lock the write-set in sorted line order (deadlock-free among
    // no-steal transactions, and deterministic).
    std::vector<Addr> lines;
    lines.reserve(buf.size());
    for (const auto &w : buf)
        lines.push_back(sys.mem().lineOf(w.first));
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    for (Addr line : lines) {
        bool granted = co_await th.txLock64(line);
        if (!granted) {
            isDoomed = true;
            co_return;
        }
    }
    // Serialization point: read-set still valid while every write
    // line is exclusively held.
    bool valid = co_await th.txValidate();
    if (!valid) {
        isDoomed = true;
        co_return;
    }
    for (const auto &w : buf) {
        bool ok = co_await th.txStore64(w.first, w.second);
        SNF_ASSERT(ok, "no-steal buffered store lost its lock");
    }
}

} // namespace snf::oltp
