/**
 * @file
 * Lightweight simulation-event probe used by crash tooling
 * (src/crashlab) to harvest the *interesting* instants of a run:
 * every tick at which the durable NVRAM image can change, plus the
 * transaction lifecycle edges needed to judge a recovered image.
 *
 * Components hold an optional ProbeFn and emit events with a tick and
 * one event-specific argument; when no probe is installed the cost is
 * a single branch. The probe lives in sim/ so that mem/ and persist/
 * components can emit events without depending on crashlab.
 */

#ifndef SNF_SIM_PROBE_HH
#define SNF_SIM_PROBE_HH

#include <cstdint>
#include <functional>

#include "sim/types.hh"

namespace snf::sim
{

/** What happened at the probed tick. */
enum class ProbeEvent : std::uint8_t
{
    /** A log-buffer group finished draining to NVRAM (arg = records). */
    LogDrain,
    /** A dirty data line's NVRAM write-back completed (arg = line). */
    DataWriteback,
    /** A WCB entry (software log line) reached NVRAM (arg = line). */
    WcbFlush,
    /** An FWB scan pass ran (arg = pass index). */
    FwbScan,
    /** tx_begin executed (arg = transaction sequence). */
    TxBegin,
    /**
     * tx_commit *initiated* (arg = tx sequence). Emitted before the
     * mode's commit sequence runs, since the commit record can reach
     * NVRAM at any point during it.
     */
    TxCommit,
    /**
     * A commit became durable: its commit record (hardware logging)
     * or commit-record fence (software logging) completed at NVRAM
     * (arg = 16-bit log txid for hardware, tx sequence for software).
     * A software-logged commit with no record announces ReadOnlyEnd
     * instead.
     */
    CommitDurable,
    /**
     * tx_abort executed: the transaction rolled back via its in-log
     * undo entries (arg = tx sequence).
     */
    TxAbort,
    /**
     * The crash model discarded a pending WCB entry before it reached
     * NVRAM (arg = line address). Emitted once per dropped entry so
     * traces account for every in-flight write; crash harvesting
     * ignores these (the drop *is* the crash, not a durable-image
     * change).
     */
    WcbDrop,
    /**
     * A software-logged transaction that wrote nothing ended with no
     * log record: a read-only commit, or an abort with nothing to
     * roll back (arg = tx sequence). Its tick, the transaction's
     * end tick, is its place in durable order: every writer it read
     * from held its locks past its commit record's fence. It fires
     * at the tick of the transaction's TxCommit or TxAbort, changes
     * no durable state, and stands in for CommitDurable.
     */
    ReadOnlyEnd,
};

/** Short stable name for reports. */
inline const char *
probeEventName(ProbeEvent e)
{
    switch (e) {
      case ProbeEvent::LogDrain:      return "log-drain";
      case ProbeEvent::DataWriteback: return "data-writeback";
      case ProbeEvent::WcbFlush:      return "wcb-flush";
      case ProbeEvent::FwbScan:       return "fwb-scan";
      case ProbeEvent::TxBegin:       return "tx-begin";
      case ProbeEvent::TxCommit:      return "tx-commit";
      case ProbeEvent::CommitDurable: return "commit-durable";
      case ProbeEvent::TxAbort:       return "tx-abort";
      case ProbeEvent::WcbDrop:       return "wcb-drop";
      case ProbeEvent::ReadOnlyEnd:   return "read-only-end";
    }
    return "?";
}

using ProbeFn =
    std::function<void(ProbeEvent, Tick, std::uint64_t arg)>;

} // namespace snf::sim

#endif // SNF_SIM_PROBE_HH
