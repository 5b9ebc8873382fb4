#include "workloads/driver.hh"

#include "persist/log_router.hh"
#include "sim/logging.hh"

namespace snf::workloads
{

RunOutcome
runWorkload(const RunSpec &spec, std::ostream *statsDump)
{
    RunOutcome out;

    SystemConfig cfg = spec.sys;
    if (spec.params.threads > cfg.numCores)
        fatal("%u threads but only %u cores", spec.params.threads,
              cfg.numCores);
    if (spec.crashAt && !cfg.persist.crashJournal)
        fatal("crash runs need PersistConfig::crashJournal");

    auto workload = makeWorkload(spec.workload);
    System sys(cfg, spec.mode);
    workload->setup(sys, spec.params);
    // Asked after setup(): an engine learns there whether its threads
    // share data (the OLTP engines do under a CC scheme).
    if (persist::resolveLogLayout(cfg, spec.mode).byCore &&
        !workload->threadPrivate())
        fatal("--distributed-log needs thread-private persistent data, "
              "but workload '%s' shares it between threads",
              spec.workload.c_str());

    for (CoreId c = 0; c < spec.params.threads; ++c) {
        sys.spawn(c, [&](Thread &t) -> sim::Co<void> {
            return workload->thread(sys, t, spec.params);
        });
    }

    Tick stop = spec.crashAt ? *spec.crashAt : kTickNever;
    out.endTick = sys.run(stop);
    if (statsDump)
        sys.dumpStats(*statsDump);

    if (spec.crashAt && out.endTick >= *spec.crashAt) {
        out.crashed = true;
        // Power failure: volatile state (caches, log buffer, WCB,
        // store buffers) is lost; the NVRAM image is whatever had
        // completed by the crash instant.
        mem::BackingStore image = sys.crashSnapshot(*spec.crashAt);
        out.recovery = persist::Recovery::run(image, sys.config().map,
                                              spec.recovery);
        if (spec.verifyAtEnd)
            out.verified = workload->verify(image,
                                            &out.verifyMessage);
        out.stats = sys.collectStats(out.endTick);
        return out;
    }

    // Statistics reflect the measured run only; the final flush
    // exists to expose a complete NVRAM image for verification and
    // is NOT part of the workload's execution time (the paper
    // measures steady-state transaction throughput).
    out.stats = sys.collectStats(out.endTick);
    if (spec.flushAtEnd) {
        sys.flushAll(out.endTick);
        // Media faults are diagnostics, not timing statistics: the
        // final flush writes every dirty line, so damage injected
        // there must show in the count the verifier's image reflects.
        out.stats.faultsInjected =
            sys.collectStats(out.endTick).faultsInjected;
    }
    if (spec.verifyAtEnd)
        out.verified = workload->verify(sys.mem().nvram().store(),
                                        &out.verifyMessage);
    return out;
}

} // namespace snf::workloads
