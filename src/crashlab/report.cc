#include "crashlab/report.hh"

#include <cstdio>
#include <ostream>

#include "sim/json.hh"
#include "sim/probe.hh"

namespace snf::crashlab
{

void
writeTextSummary(std::ostream &os, const CellResult &cell)
{
    os << cell.workload << " / " << persistModeName(cell.mode)
       << " / seed " << cell.seed << ": " << cell.sweep.pointsTested
       << "/" << cell.sweep.pointsHarvested << " crash points, "
       << cell.sweep.pointsFailed << " violations ("
       << cell.sweep.refCommittedTx << " txns, "
       << cell.sweep.refLogWraps << " log wraps, end tick "
       << cell.sweep.endTick << ")\n";
    if (cell.sweep.totalSlotsFaulted != 0 ||
        cell.sweep.totalQuarantined != 0) {
        os << "  faults: " << cell.sweep.totalSlotsFaulted
           << " slots damaged across points, "
           << cell.sweep.totalSalvaged << " txns salvaged, "
           << cell.sweep.totalQuarantined << " quarantined\n";
    }
    for (const auto &t : cell.sweep.shardTotals) {
        os << "  shard " << t.shard << ": " << t.validRecords
           << " records, " << t.salvagedTxns << " salvaged, "
           << t.quarantinedTxns << " quarantined";
        if (t.abortedDeadShard != 0 || t.deadPoints != 0) {
            os << ", " << t.abortedDeadShard
               << " dead-shard aborts, dead at " << t.deadPoints
               << " points";
        }
        os << "\n";
    }
    if (cell.sweep.totalDeadShardAborted != 0) {
        os << "  degraded: " << cell.sweep.totalDeadShardAborted
           << " txns aborted across a dead shard\n";
    }
    if (cell.sweep.reorderEnabled) {
        os << "  reorder: " << cell.sweep.reorderImagesTested
           << " images tested across "
           << cell.sweep.reorderPointsWithPending
           << " points with pending persists (max pending set "
           << cell.sweep.reorderMaxPending << ")\n";
    }
    if (!cell.sweep.refVerified) {
        os << "  reference run FAILED verification: "
           << cell.sweep.refVerifyMessage << "\n";
    }
    for (const auto &f : cell.sweep.failures) {
        os << "  tick " << f.point.tick << " ("
           << sim::probeEventName(f.point.kind)
           << (f.point.before ? "-1" : "") << "):\n";
        for (const auto &v : f.violations)
            os << "    " << v.invariant << ": " << v.detail << "\n";
        if (!f.reorderDetail.empty())
            os << "    ordering: " << f.reorderDetail << "\n";
    }
    if (cell.sweep.minimizedTick) {
        os << "  minimized to tick " << *cell.sweep.minimizedTick
           << ":\n";
        os << cell.sweep.minimizedDetail;
    }
}

void
writePerfSummary(std::ostream &os, const CellResult &cell)
{
    const SweepPerf &p = cell.sweep.perf;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  perf: total %.3fs = ref-run %.3fs + harvest "
                  "%.3fs + index %.3fs + eval (jobs=%zu)\n",
                  p.totalSec, p.refRunSec, p.harvestSec, p.indexSec,
                  p.jobsUsed);
    os << line;
    std::snprintf(line, sizeof(line),
                  "  perf: eval worker-sec: snapshot %.3f, recover "
                  "%.3f (%llu passes), check %.3f (verify %.3f); "
                  "minimize %.3fs\n",
                  p.snapshotSec, p.recoverSec,
                  static_cast<unsigned long long>(p.recoverCalls),
                  p.checkSec, p.verifySec, p.minimizeSec);
    os << line;
    std::snprintf(
        line, sizeof(line),
        "  perf: journal %llu entries, %llu replayed, %llu pages "
        "cloned\n",
        static_cast<unsigned long long>(p.journalEntries),
        static_cast<unsigned long long>(p.entriesReplayed),
        static_cast<unsigned long long>(p.pagesCloned));
    os << line;
}

namespace
{

void
writePerfJson(JsonWriter &w, const SweepPerf &p)
{
    w.key("perf").beginObject();
    w.key("ref_run_sec").fixed(p.refRunSec, 6);
    w.key("harvest_sec").fixed(p.harvestSec, 6);
    w.key("index_sec").fixed(p.indexSec, 6);
    w.key("snapshot_sec").fixed(p.snapshotSec, 6);
    w.key("recover_sec").fixed(p.recoverSec, 6);
    w.field("recover_calls", p.recoverCalls);
    w.key("check_sec").fixed(p.checkSec, 6);
    w.key("verify_sec").fixed(p.verifySec, 6);
    w.key("minimize_sec").fixed(p.minimizeSec, 6);
    w.key("total_sec").fixed(p.totalSec, 6);
    w.field("journal_entries", p.journalEntries);
    w.field("entries_replayed", p.entriesReplayed);
    w.field("pages_cloned", p.pagesCloned);
    w.field("jobs", p.jobsUsed);
    w.end();
}

/** The cell parameters both documents open a cell with. */
void
writeCellHead(JsonWriter &w, const CellResult &cell)
{
    w.field("workload", cell.workload);
    w.field("mode", persistModeName(cell.mode));
    w.field("seed", cell.seed);
    w.field("threads", cell.threads);
    w.field("tx_per_thread", cell.txPerThread);
}

void
writeCell(JsonWriter &w, const CellResult &cell)
{
    const SweepResult &sw = cell.sweep;
    w.beginObject();
    writeCellHead(w, cell);
    w.field("end_tick", sw.endTick);
    w.field("committed_tx", sw.refCommittedTx);
    w.field("log_wraps", sw.refLogWraps);
    w.field("reference_verified", sw.refVerified);
    w.field("points_harvested", sw.pointsHarvested);
    w.field("points_tested", sw.pointsTested);
    w.field("points_failed", sw.pointsFailed);
    w.field("slots_faulted", sw.totalSlotsFaulted);
    w.field("txns_salvaged", sw.totalSalvaged);
    w.field("txns_quarantined", sw.totalQuarantined);
    // Shard fields only when the log was sharded: unsharded reports
    // stay byte-identical to the pre-shardlab format.
    if (!sw.shardTotals.empty()) {
        w.field("dead_shard_aborted", sw.totalDeadShardAborted);
        w.key("shards").beginArray();
        for (const SweepResult::ShardTotals &t : sw.shardTotals) {
            w.beginObject(JsonWriter::Layout::Inline);
            w.field("shard", t.shard);
            w.field("valid_records", t.validRecords);
            w.field("salvaged", t.salvagedTxns);
            w.field("quarantined", t.quarantinedTxns);
            w.field("aborted_dead_shard", t.abortedDeadShard);
            w.field("dead_points", t.deadPoints);
            w.end();
        }
        w.end();
    }
    // Reorder fields only when the adversary ran: reorder-off
    // reports stay byte-identical to the pre-reorderlab format.
    if (sw.reorderEnabled) {
        w.field("reorder_images_tested", sw.reorderImagesTested);
        w.field("reorder_points_with_pending",
                sw.reorderPointsWithPending);
        w.field("reorder_max_pending", sw.reorderMaxPending);
    }
    w.key("failures").beginArray();
    for (const PointOutcome &f : sw.failures) {
        w.beginObject(JsonWriter::Layout::Inline);
        w.field("tick", f.point.tick);
        w.field("event", sim::probeEventName(f.point.kind));
        w.field("before_event", f.point.before);
        w.key("violations").beginArray();
        for (const Violation &v : f.violations) {
            w.beginObject();
            w.field("invariant", v.invariant);
            w.field("detail", v.detail);
            w.end();
        }
        w.end();
        if (!f.reorderDetail.empty())
            w.field("reorder", f.reorderDetail);
        w.end();
    }
    w.end();
    if (sw.minimizedTick) {
        w.field("minimized_tick", *sw.minimizedTick);
        w.field("minimized_detail", sw.minimizedDetail);
    }
    writePerfJson(w, sw.perf);
    w.field("passed", sw.passed());
    w.end();
}

} // namespace

void
writeJsonReport(std::ostream &os,
                const std::vector<CellResult> &cells)
{
    std::size_t failed = 0;
    for (const auto &c : cells)
        if (!c.sweep.passed())
            ++failed;
    JsonWriter w(os);
    w.beginObject();
    w.field("tool", "snfcrash");
    w.key("cells").beginArray();
    for (const CellResult &c : cells)
        writeCell(w, c);
    w.end();
    w.field("cells_total", cells.size());
    w.field("cells_failed", failed);
    w.end();
}

void
writeBenchJson(std::ostream &os, const std::string &tool,
               const std::vector<CellResult> &cells)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "snf-bench-sweep-v2");
    w.field("tool", tool);
    w.key("cells").beginArray();
    for (const CellResult &c : cells) {
        w.beginObject();
        writeCellHead(w, c);
        w.field("points_tested", c.sweep.pointsTested);
        writePerfJson(w, c.sweep.perf);
        w.end();
    }
    w.end();
    w.end();
}

} // namespace snf::crashlab
