#include "crashlab/report.hh"

#include <cstdio>
#include <ostream>

#include "sim/probe.hh"

namespace snf::crashlab
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

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
                  "%.3f, check %.3f; minimize %.3fs\n",
                  p.snapshotSec, p.recoverSec, p.checkSec,
                  p.minimizeSec);
    os << line;
    std::snprintf(
        line, sizeof(line),
        "  perf: journal %llu entries, %llu checkpoints, %llu "
        "replayed, %llu pages cloned\n",
        static_cast<unsigned long long>(p.journalEntries),
        static_cast<unsigned long long>(p.checkpointsBuilt),
        static_cast<unsigned long long>(p.entriesReplayed),
        static_cast<unsigned long long>(p.pagesCloned));
    os << line;
}

namespace
{

void
writePerfJson(std::ostream &os, const SweepPerf &p,
              const char *indent)
{
    char line[192];
    os << indent << "\"perf\": {\n";
    auto secs = [&](const char *key, double v, bool comma = true) {
        std::snprintf(line, sizeof(line), "%s  \"%s_sec\": %.6f%s\n",
                      indent, key, v, comma ? "," : "");
        os << line;
    };
    secs("ref_run", p.refRunSec);
    secs("harvest", p.harvestSec);
    secs("index", p.indexSec);
    secs("snapshot", p.snapshotSec);
    secs("recover", p.recoverSec);
    secs("check", p.checkSec);
    secs("minimize", p.minimizeSec);
    secs("total", p.totalSec);
    os << indent << "  \"journal_entries\": " << p.journalEntries
       << ",\n";
    os << indent << "  \"checkpoints_built\": " << p.checkpointsBuilt
       << ",\n";
    os << indent << "  \"entries_replayed\": " << p.entriesReplayed
       << ",\n";
    os << indent << "  \"pages_cloned\": " << p.pagesCloned << ",\n";
    os << indent << "  \"jobs\": " << p.jobsUsed << "\n";
    os << indent << "}";
}

void
writeCell(std::ostream &os, const CellResult &cell,
          const char *indent)
{
    const SweepResult &sw = cell.sweep;
    os << indent << "{\n";
    os << indent << "  \"workload\": \""
       << jsonEscape(cell.workload) << "\",\n";
    os << indent << "  \"mode\": \"" << persistModeName(cell.mode)
       << "\",\n";
    os << indent << "  \"seed\": " << cell.seed << ",\n";
    os << indent << "  \"threads\": " << cell.threads << ",\n";
    os << indent << "  \"tx_per_thread\": " << cell.txPerThread
       << ",\n";
    os << indent << "  \"end_tick\": " << sw.endTick << ",\n";
    os << indent << "  \"committed_tx\": " << sw.refCommittedTx
       << ",\n";
    os << indent << "  \"log_wraps\": " << sw.refLogWraps << ",\n";
    os << indent << "  \"reference_verified\": "
       << (sw.refVerified ? "true" : "false") << ",\n";
    os << indent << "  \"points_harvested\": " << sw.pointsHarvested
       << ",\n";
    os << indent << "  \"points_tested\": " << sw.pointsTested
       << ",\n";
    os << indent << "  \"points_failed\": " << sw.pointsFailed
       << ",\n";
    os << indent << "  \"slots_faulted\": " << sw.totalSlotsFaulted
       << ",\n";
    os << indent << "  \"txns_salvaged\": " << sw.totalSalvaged
       << ",\n";
    os << indent << "  \"txns_quarantined\": " << sw.totalQuarantined
       << ",\n";
    // Shard fields only when the log was sharded: unsharded reports
    // stay byte-identical to the pre-shardlab format.
    if (!sw.shardTotals.empty()) {
        os << indent << "  \"dead_shard_aborted\": "
           << sw.totalDeadShardAborted << ",\n";
        os << indent << "  \"shards\": [";
        for (std::size_t i = 0; i < sw.shardTotals.size(); ++i) {
            const SweepResult::ShardTotals &t = sw.shardTotals[i];
            os << (i ? ",\n" : "\n");
            os << indent << "    {\"shard\": " << t.shard
               << ", \"valid_records\": " << t.validRecords
               << ", \"salvaged\": " << t.salvagedTxns
               << ", \"quarantined\": " << t.quarantinedTxns
               << ", \"aborted_dead_shard\": " << t.abortedDeadShard
               << ", \"dead_points\": " << t.deadPoints << "}";
        }
        os << "\n" << indent << "  ],\n";
    }
    // Reorder fields only when the adversary ran: reorder-off
    // reports stay byte-identical to the pre-reorderlab format.
    if (sw.reorderEnabled) {
        os << indent << "  \"reorder_images_tested\": "
           << sw.reorderImagesTested << ",\n";
        os << indent << "  \"reorder_points_with_pending\": "
           << sw.reorderPointsWithPending << ",\n";
        os << indent << "  \"reorder_max_pending\": "
           << sw.reorderMaxPending << ",\n";
    }
    os << indent << "  \"failures\": [";
    for (std::size_t i = 0; i < sw.failures.size(); ++i) {
        const PointOutcome &f = sw.failures[i];
        os << (i ? ",\n" : "\n");
        os << indent << "    {\"tick\": " << f.point.tick
           << ", \"event\": \"" << sim::probeEventName(f.point.kind)
           << "\", \"before_event\": "
           << (f.point.before ? "true" : "false")
           << ", \"violations\": [";
        for (std::size_t j = 0; j < f.violations.size(); ++j) {
            os << (j ? ", " : "");
            os << "{\"invariant\": \""
               << jsonEscape(f.violations[j].invariant)
               << "\", \"detail\": \""
               << jsonEscape(f.violations[j].detail) << "\"}";
        }
        os << "]";
        if (!f.reorderDetail.empty())
            os << ", \"reorder\": \""
               << jsonEscape(f.reorderDetail) << "\"";
        os << "}";
    }
    if (sw.failures.empty())
        os << "]";
    else
        os << "\n" << indent << "  ]";
    os << ",\n";
    if (sw.minimizedTick) {
        os << indent << "  \"minimized_tick\": " << *sw.minimizedTick
           << ",\n";
        os << indent << "  \"minimized_detail\": \""
           << jsonEscape(sw.minimizedDetail) << "\",\n";
    }
    writePerfJson(os, sw.perf,
                  (std::string(indent) + "  ").c_str());
    os << ",\n";
    os << indent << "  \"passed\": "
       << (sw.passed() ? "true" : "false") << "\n";
    os << indent << "}";
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
    os << "{\n";
    os << "  \"tool\": \"snfcrash\",\n";
    os << "  \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        os << (i ? ",\n" : "\n");
        writeCell(os, cells[i], "    ");
    }
    os << (cells.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"cells_total\": " << cells.size() << ",\n";
    os << "  \"cells_failed\": " << failed << "\n";
    os << "}\n";
}

void
writeBenchJson(std::ostream &os, const std::string &tool,
               const std::vector<CellResult> &cells)
{
    os << "{\n";
    os << "  \"schema\": \"snf-bench-sweep-v1\",\n";
    os << "  \"tool\": \"" << jsonEscape(tool) << "\",\n";
    os << "  \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &c = cells[i];
        os << (i ? ",\n" : "\n");
        os << "    {\n";
        os << "      \"workload\": \"" << jsonEscape(c.workload)
           << "\",\n";
        os << "      \"mode\": \"" << persistModeName(c.mode)
           << "\",\n";
        os << "      \"seed\": " << c.seed << ",\n";
        os << "      \"threads\": " << c.threads << ",\n";
        os << "      \"tx_per_thread\": " << c.txPerThread << ",\n";
        os << "      \"points_tested\": " << c.sweep.pointsTested
           << ",\n";
        writePerfJson(os, c.sweep.perf, "      ");
        os << "\n    }";
    }
    os << (cells.empty() ? "]" : "\n  ]") << "\n";
    os << "}\n";
}

} // namespace snf::crashlab
