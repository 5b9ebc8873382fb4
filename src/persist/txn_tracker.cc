#include "persist/txn_tracker.hh"

#include "sim/logging.hh"

namespace snf::persist
{

TxnTracker::TxnTracker()
    : statGroup("txn"),
      begun(statGroup.counter("begun")),
      committed(statGroup.counter("committed")),
      aborted(statGroup.counter("aborted")),
      lockAcquires(statGroup.counter("cc_lock_acquires")),
      lockWaits(statGroup.counter("cc_lock_waits")),
      deadlockAborts(statGroup.counter("cc_deadlock_aborts")),
      validationFailures(statGroup.counter("cc_validation_failures"))
{
}

std::uint64_t
TxnTracker::begin()
{
    std::uint64_t seq = nextSeq++;
    Txn *t;
    if (freeSlots.empty()) {
        t = &slots.emplace_back();
    } else {
        t = freeSlots.back();
        freeSlots.pop_back();
    }
    t->seq = seq;
    slotOfSeq[seq] = t;
    begun.inc();
    return seq;
}

TxnTracker::Txn *
TxnTracker::find(std::uint64_t seq)
{
    Txn *const *slot = slotOfSeq.find(seq);
    return slot ? *slot : nullptr;
}

const TxnTracker::Txn *
TxnTracker::find(std::uint64_t seq) const
{
    Txn *const *slot = slotOfSeq.find(seq);
    return slot ? *slot : nullptr;
}

void
TxnTracker::commit(std::uint64_t seq)
{
    Txn *t = find(seq);
    SNF_ASSERT(t, "commit of unknown txn %llu",
               static_cast<unsigned long long>(seq));
    release(*t, true);
    committed.inc();
}

void
TxnTracker::abort(std::uint64_t seq)
{
    Txn *t = find(seq);
    if (!t)
        return;
    release(*t, false);
    aborted.inc();
}

void
TxnTracker::noteLogRecord(std::uint64_t seq)
{
    if (Txn *t = find(seq))
        ++t->logRecords;
}

std::uint32_t
TxnTracker::logRecordCount(std::uint64_t seq) const
{
    const Txn *t = find(seq);
    return t ? t->logRecords : 0;
}

void
TxnTracker::noteShardRecord(std::uint64_t seq, std::uint32_t shard)
{
    Txn *t = find(seq);
    if (!t)
        return;
    t->shardMask |= 1ULL << shard;
    if (t->shardRecords.size() <= shard)
        t->shardRecords.resize(shard + 1, 0);
    ++t->shardRecords[shard];
}

std::uint64_t
TxnTracker::shardMaskOf(std::uint64_t seq) const
{
    const Txn *t = find(seq);
    return t ? t->shardMask : 0;
}

std::uint32_t
TxnTracker::shardRecordCount(std::uint64_t seq,
                             std::uint32_t shard) const
{
    const Txn *t = find(seq);
    if (!t || t->shardRecords.size() <= shard)
        return 0;
    return t->shardRecords[shard];
}

bool
TxnTracker::isActive(std::uint64_t seq) const
{
    return slotOfSeq.contains(seq);
}

void
TxnTracker::recordWrite(std::uint64_t seq, Addr lineAddr)
{
    Txn *t = find(seq);
    SNF_ASSERT(t, "write in unknown txn %llu",
               static_cast<unsigned long long>(seq));
    if (t->seen.insert(lineAddr))
        t->writeLines.push_back(lineAddr);
}

const std::vector<Addr> &
TxnTracker::writeSet(std::uint64_t seq) const
{
    const Txn *t = find(seq);
    return t ? t->writeLines : emptySet;
}

CcDecision
TxnTracker::acquireLine(std::uint64_t seq, Addr line, bool forWrite)
{
    SNF_ASSERT(ccModeV != CcMode::None,
               "CC acquire with concurrency control disabled");
    Txn *txn = find(seq);
    SNF_ASSERT(txn, "CC acquire in unknown txn %llu",
               static_cast<unsigned long long>(seq));
    LineCc *cc = lineCc.find(line);
    std::uint64_t owner = cc ? cc->owner : 0;
    if (owner != 0 && owner != seq) {
        // Held by someone else. Park behind the holder unless that
        // would close a cycle.
        txn->waitingOn = owner;
        if (wouldDeadlock(*txn)) {
            txn->waitingOn = 0;
            deadlockAborts.inc();
            return CcDecision::Abort;
        }
        lockWaits.inc();
        return CcDecision::Wait;
    }
    txn->waitingOn = 0;

    if (forWrite || ccModeV == CcMode::TwoPhase) {
        if (owner == 0) {
            (cc ? *cc : lineCc[line]).owner = seq;
            txn->locksHeld.push_back(line);
            lockAcquires.inc();
        }
    } else {
        // TL2 read of an unlocked (or self-locked) line: record the
        // version seen at first read for commit-time validation.
        if (txn->readSeen.insert(line))
            txn->readSet.emplace_back(line, cc ? cc->version : 0);
    }
    return CcDecision::Granted;
}

bool
TxnTracker::wouldDeadlock(const Txn &txn) const
{
    // Each transaction waits for at most one holder, so the chain
    // from txn is a path; a cycle through the new edge must lead back
    // to txn. The chain ends at a holder that is not waiting or is no
    // longer active (its edge went with it).
    std::uint64_t holder = txn.waitingOn;
    std::size_t hops = 0;
    while (holder != 0 && hops++ <= activeCount()) {
        if (holder == txn.seq)
            return true;
        const Txn *h = find(holder);
        if (!h)
            return false;
        holder = h->waitingOn;
    }
    return false;
}

bool
TxnTracker::validateReads(std::uint64_t seq)
{
    const Txn *t = find(seq);
    if (!t)
        return true;
    for (const auto &[line, version] : t->readSet) {
        const LineCc *cc = lineCc.find(line);
        if (cc && cc->owner != 0 && cc->owner != seq) {
            validationFailures.inc();
            return false;
        }
        if ((cc ? cc->version : 0) != version) {
            validationFailures.inc();
            return false;
        }
    }
    return true;
}

std::size_t
TxnTracker::readSetSize(std::uint64_t seq) const
{
    const Txn *t = find(seq);
    return t ? t->readSet.size() : 0;
}

std::uint64_t
TxnTracker::lineVersion(Addr line) const
{
    const LineCc *cc = lineCc.find(line);
    return cc ? cc->version : 0;
}

void
TxnTracker::release(Txn &t, bool committing)
{
    if (committing && ccModeV != CcMode::None) {
        // Bump the written lines' versions so TL2 readers with older
        // versions fail validation.
        for (Addr line : t.writeLines)
            lineCc[line].version = ++versionClock;
    }
    for (Addr line : t.locksHeld) {
        LineCc *cc = lineCc.find(line);
        if (cc && cc->owner == t.seq)
            cc->owner = 0;
    }

    for (Addr line : t.writeLines)
        t.seen.erase(line);
    for (const auto &read : t.readSet)
        t.readSeen.erase(read.first);
    t.writeLines.clear();
    t.shardRecords.clear();
    t.locksHeld.clear();
    t.readSet.clear();
    t.logRecords = 0;
    t.shardMask = 0;
    t.waitingOn = 0;
    slotOfSeq.erase(t.seq);
    t.seq = 0;
    freeSlots.push_back(&t);
}

} // namespace snf::persist
