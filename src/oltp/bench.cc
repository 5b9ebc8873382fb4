#include "oltp/bench.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "persist/log_buffer.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/probe.hh"
#include "workloads/driver.hh"

namespace snf::oltp
{

namespace
{

/** One timed end-to-end simulation of a cell. */
OltpCellResult
runOnce(const OltpCellSpec &cell, const OltpMatrixConfig &cfg,
        double *wallSec)
{
    workloads::RunSpec spec;
    spec.workload = cell.engine;
    spec.mode = cell.mode;
    spec.params.threads = cfg.threads;
    spec.params.txPerThread = cfg.txPerThread;
    spec.params.seed = cfg.seed;
    spec.params.warehouses = cfg.warehouses;
    spec.params.zipfTheta = cfg.zipfTheta;
    spec.params.footprint =
        cell.engine == "oltp-tpcc" ? cfg.customers : cfg.keys;
    spec.sys = SystemConfig::scaled(cfg.threads);
    spec.sys.persist.ccMode = cell.cc;
    spec.sys.persist.logShards = cfg.logShards;

    auto t0 = std::chrono::steady_clock::now();

    workloads::LiveCell live(spec);
    System &sys = live.system();
    const auto *engine = dynamic_cast<const OltpEngine *>(&live.workload());
    SNF_ASSERT(engine, "'%s' is not an OLTP engine",
               cell.engine.c_str());

    OltpCellResult r;
    r.spec = cell;
    sys.setProbe([&](sim::ProbeEvent e, Tick now, std::uint64_t) {
        if (e != sim::ProbeEvent::TxCommit)
            return;
        ++r.occSamples;
        // Log occupancy summed over every region's buffer (a sharded
        // log has one per shard).
        std::uint64_t occ = 0;
        for (std::size_t i = 0; i < sys.logPartitionCount(); ++i)
            if (persist::LogBuffer *lb = sys.logBuffer(i))
                occ += lb->occupancy(now);
        r.logOccSum += occ;
        r.logOccMax = std::max(r.logOccMax, occ);
        std::uint64_t wocc = sys.mem().wcb().occupancy();
        r.wcbOccSum += wocc;
        r.wcbOccMax = std::max(r.wcbOccMax, wocc);
    });

    live.run();
    workloads::RunOutcome out = live.finish();
    if (!out.verified)
        fatal("oltp bench cell %s/%s/%s failed verification: %s",
              cell.engine.c_str(), persistModeName(cell.mode),
              ccModeName(cell.cc), out.verifyMessage.c_str());

    auto t1 = std::chrono::steady_clock::now();
    *wallSec = std::chrono::duration<double>(t1 - t0).count();

    r.stats = out.stats;
    r.retries = engine->retries();
    r.userAborts = engine->userAborts();
    for (const auto &[name, m] : engine->txMetrics()) {
        OltpTypeCounters tc;
        tc.type = name;
        tc.committed = m.committed;
        tc.latP50 = m.latency.p50();
        tc.latP99 = m.latency.p99();
        tc.latP999 = m.latency.p999();
        tc.latMean = m.latency.mean();
        tc.latMax = m.latency.max();
        tc.latSum = m.latency.sum();
        r.types.push_back(std::move(tc));
    }
    return r;
}

} // namespace

std::vector<std::pair<const char *, std::uint64_t>>
OltpCellResult::counters() const
{
    return {{"cycles", stats.cycles},
            {"committed_tx", stats.committedTx},
            {"aborted_tx", stats.abortedTx},
            {"instructions", stats.instr.total},
            {"retries", retries},         {"user_aborts", userAborts},
            {"log_records", stats.logRecords},
            {"nvram_writes", stats.nvramWrites},
            {"occ_samples", occSamples},  {"log_occ_sum", logOccSum},
            {"log_occ_max", logOccMax},   {"wcb_occ_sum", wcbOccSum},
            {"wcb_occ_max", wcbOccMax},
            {"forced_writebacks", stats.forcedWritebacks},
            {"reclaim_wait_cycles", stats.reclaimWaitCycles}};
}

bool
OltpCellResult::countersEqual(const OltpCellResult &o) const
{
    return counters() == o.counters() && types == o.types;
}

std::vector<OltpCellSpec>
oltpReferenceCells()
{
    std::vector<OltpCellSpec> cells;
    for (const char *engine : {"oltp-tpcc", "oltp-ycsb"})
        for (PersistMode mode :
             {PersistMode::Fwb, PersistMode::UndoClwb,
              PersistMode::RedoClwb})
            for (CcMode cc : {CcMode::TwoPhase, CcMode::Tl2})
                cells.push_back({engine, mode, cc});
    return cells;
}

OltpCellResult
runOltpCell(const OltpCellSpec &cell, const OltpMatrixConfig &cfg)
{
    OltpCellResult best;
    double total = 0.0;
    for (std::uint64_t r = 0;
         r < cfg.minRepeats ||
         (cfg.secondsPerCell > 0.0 && total < cfg.secondsPerCell);
         ++r) {
        double sec = 0.0;
        OltpCellResult cur = runOnce(cell, cfg, &sec);
        total += sec;
        if (r == 0) {
            best = std::move(cur);
            best.wallSec = sec;
        } else {
            if (!best.countersEqual(cur))
                fatal("oltp bench cell %s/%s/%s not deterministic "
                      "across repeats",
                      cell.engine.c_str(),
                      persistModeName(cell.mode),
                      ccModeName(cell.cc));
            best.wallSec = std::min(best.wallSec, sec);
        }
        ++best.repeats;
    }
    return best;
}

std::vector<OltpCellResult>
runOltpMatrix(const std::vector<OltpCellSpec> &cells,
              const OltpMatrixConfig &cfg)
{
    std::vector<OltpCellResult> results(cells.size());
    unsigned jobs = std::max(1u, cfg.jobs);
    if (jobs == 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            results[i] = runOltpCell(cells[i], cfg);
        return results;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned j = 0; j < jobs; ++j)
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= cells.size())
                    return;
                results[i] = runOltpCell(cells[i], cfg);
            }
        });
    for (auto &t : pool)
        t.join();
    return results;
}

void
writeOltpBenchJson(std::ostream &os, const OltpMatrixConfig &cfg,
                   const std::vector<OltpCellResult> &results)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "snf-bench-oltp-v2");
    w.field("tool", "snfoltp");
    w.field("threads", cfg.threads);
    w.field("tx_per_thread", cfg.txPerThread);
    w.field("seed", cfg.seed);
    w.field("warehouses", cfg.warehouses);
    w.field("customers", cfg.customers);
    w.field("keys", cfg.keys);
    w.field("zipf_theta", cfg.zipfTheta);
    w.field("log_shards", cfg.logShards);
    w.key("cells").beginArray();
    for (const OltpCellResult &r : results) {
        w.beginObject();
        w.field("workload", r.spec.engine);
        w.field("mode", persistModeName(r.spec.mode));
        w.field("cc", ccModeName(r.spec.cc));
        w.key("counters").beginObject();
        for (const auto &[name, value] : r.counters())
            w.field(name, value);
        w.key("tx_types").beginArray();
        for (const OltpTypeCounters &t : r.types) {
            w.beginObject(JsonWriter::Layout::Inline);
            w.field("type", t.type);
            w.field("committed", t.committed);
            w.field("lat_p50", t.latP50);
            w.field("lat_p99", t.latP99);
            w.field("lat_p999", t.latP999);
            w.field("lat_mean", t.latMean);
            w.field("lat_max", t.latMax);
            w.field("lat_sum", t.latSum);
            w.end();
        }
        w.end();
        w.end();
        w.key("perf").beginObject();
        w.field("wall_sec", r.wallSec);
        w.field("sim_tx_per_sec",
                r.wallSec > 0.0
                    ? static_cast<double>(r.stats.committedTx) /
                          r.wallSec
                    : 0.0);
        w.field("repeats", r.repeats);
        w.end();
        w.end();
    }
    w.end();
    w.end();
}

} // namespace snf::oltp
