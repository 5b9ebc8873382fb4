#include "workloads/driver.hh"

#include "persist/log_router.hh"
#include "sim/logging.hh"

namespace snf::workloads
{

LiveCell::LiveCell(const RunSpec &cellSpec)
    : spec(cellSpec), wl(makeWorkload(spec.workload)),
      sys(spec.sys, spec.mode)
{
    if (spec.params.threads > spec.sys.numCores)
        fatal("%u threads but only %u cores", spec.params.threads,
              spec.sys.numCores);
    if (spec.crashAt && !spec.sys.persist.crashJournal)
        fatal("crash runs need PersistConfig::crashJournal");
    wl->setup(sys, spec.params);
    // Asked after setup(): an engine learns there whether its threads
    // share data (the OLTP engines do under a CC scheme).
    if (persist::resolveLogLayout(spec.sys, spec.mode).byCore &&
        !wl->threadPrivate())
        fatal("--distributed-log needs thread-private persistent data, "
              "but workload '%s' shares it between threads",
              spec.workload.c_str());
}

Tick
LiveCell::run()
{
    for (CoreId c = 0; c < spec.params.threads; ++c)
        sys.spawn(c, [this](Thread &t) -> sim::Co<void> {
            return wl->thread(sys, t, spec.params);
        });
    end = sys.run(spec.crashAt.value_or(kTickNever));
    return end;
}

RunOutcome
LiveCell::finish()
{
    RunOutcome out;
    out.endTick = end;
    // Statistics reflect the measured run only; the final flush
    // exists to expose a complete NVRAM image for verification and
    // is NOT part of the workload's execution time (the paper
    // measures steady-state transaction throughput).
    out.stats = sys.collectStats(end);
    if (spec.crashAt && end >= *spec.crashAt) {
        out.crashed = true;
        // Power failure: volatile state (caches, log buffer, WCB,
        // store buffers) is lost; the NVRAM image is whatever had
        // completed by the crash instant.
        mem::BackingStore image = sys.crashSnapshot(*spec.crashAt);
        out.recovery = persist::Recovery::run(image, sys.config().map,
                                              spec.recovery);
        if (spec.verifyAtEnd)
            out.verified = wl->verify(image, &out.verifyMessage);
        return out;
    }
    if (!spec.verifyAtEnd)
        return out;
    sys.flushAll(end);
    // Media faults are diagnostics, not timing statistics: the final
    // flush writes every dirty line, so damage injected there must
    // show in the count the verifier's image reflects.
    out.stats.faultsInjected = sys.collectStats(end).faultsInjected;
    out.verified = wl->verify(sys.mem().nvram().store(),
                              &out.verifyMessage);
    return out;
}

RunOutcome
runWorkload(const RunSpec &spec, std::ostream *statsDump)
{
    LiveCell cell(spec);
    cell.run();
    if (statsDump)
        cell.system().dumpStats(*statsDump);
    return cell.finish();
}

} // namespace snf::workloads
