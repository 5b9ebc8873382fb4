#include "core/thread_api.hh"

#include <algorithm>
#include <cstring>

#include "core/system.hh"
#include "sim/logging.hh"

namespace snf
{

namespace
{

/** Library-call overhead of tx_begin/tx_commit, in instructions. */
constexpr std::uint64_t kTxLibraryInstructions = 8;

/** TL2 validation cost per read-set entry, in instructions. */
constexpr std::uint64_t kCcValidateInstructions = 2;

/** First CC acquire-retry backoff, in instructions; doubles per try. */
constexpr std::uint32_t kCcBackoffBase = 8;

/** Cap on the CC acquire-retry backoff, in instructions. */
constexpr std::uint32_t kCcBackoffCap = 1024;

/** Non-memory instructions a core retires per cycle. */
constexpr std::uint32_t kIssueWidth = 4;

/** Store-buffer entries per core. */
constexpr std::uint32_t kStoreBufferEntries = 32;

} // namespace

Thread::Thread(CoreId id, System &system)
    : ctx(id, kIssueWidth, kStoreBufferEntries), sys(system)
{
}

std::uint64_t
Thread::execLoad(Addr a, std::uint32_t size)
{
    ctx.instr.total += 1;
    ctx.instr.loads += 1;
    std::uint64_t v = 0;
    auto r = sys.mem().load(ctx.id(), a, size, &v, ctx.localTime);
    ctx.localTime = r.done;
    return v;
}

void
Thread::execStore(Addr a, std::uint32_t size, std::uint64_t v)
{
    ctx.instr.total += 1;
    ctx.instr.stores += 1;

    bool persistent = inTx && sys.config().map.isNvram(a);

    persist::SwLogging::Result logged;
    if (persistent && sys.swlog()) {
        // Software logging: injected instructions run before the
        // data store (Figure 2(a)).
        logged = sys.swlog()->logStore(ctx.id(), txSeq, a, size, v,
                                       ctx.localTime);
        ctx.localTime = std::max(ctx.localTime, logged.done);
        ctx.instr.total += logged.instructions;
        ctx.instr.logStores += logged.logStores;
        ctx.instr.logLoads += logged.logLoads;
        ctx.instr.fences += logged.fences;
    }
    if (persistent)
        sys.txns().recordWrite(txSeq, sys.mem().lineOf(a));

    mem::MemorySystem::StoreCtx sctx;
    sctx.persistent = persistent;
    sctx.txSeq = txSeq;
    auto r = sys.mem().store(ctx.id(), a, size, &v, ctx.localTime, sctx);
    // The record's slot takes the store's stamp only now that the
    // store is in its L1 line (LogRegion::restamp).
    if (logged.region)
        logged.region->restamp(logged.slot);

    // The core retires the store into the store buffer in one cycle;
    // it only stalls when the buffer is full (or the HWL log buffer
    // exerted back-pressure, folded into r.done).
    ctx.localTime += 1;
    ctx.noteStoreDrain(r.done);
}

void
Thread::execCompute(std::uint64_t n)
{
    ctx.instr.total += n;
    ctx.instr.compute += n;
    ctx.retireCompute(n);
}

void
Thread::execTxBegin()
{
    SNF_ASSERT(!inTx, "nested transaction on core %u", ctx.id());
    inTx = true;
    txPreValidated = false;
    txSeq = sys.txns().begin();
    ctx.instr.total += kTxLibraryInstructions;
    ctx.instr.txOverhead += kTxLibraryInstructions;
    ctx.retireCompute(kTxLibraryInstructions);
    if (sys.probe())
        sys.probe()(sim::ProbeEvent::TxBegin, ctx.localTime, txSeq);
}

void
Thread::execClwb(Addr a)
{
    ctx.instr.total += 1;
    ctx.instr.clwbs += 1;
    Tick persist = sys.mem().clwb(ctx.id(), a, ctx.localTime);
    ctx.notePendingPersist(persist);
    ctx.localTime += 2;
}

void
Thread::execFence()
{
    ctx.instr.total += 1;
    ctx.instr.fences += 1;
    ctx.drainForFence();
    ctx.localTime =
        std::max(ctx.localTime, sys.mem().drainWcb(ctx.localTime));
}

bool
Thread::endsWithoutRecord() const
{
    return isSoftwareLogging(sys.mode()) &&
           sys.txns().writeSet(txSeq).empty();
}

void
Thread::announceReadOnlyEnd()
{
    // Its end tick follows every writer it could have read from:
    // under undo-clwb and redo-clwb a writer holds its locks until
    // the last step of its commit sequence, which runs after the
    // fence behind its commit record. The snfdiff_conflict_read_heavy_*
    // gates guard the rule.
    if (sys.probe())
        sys.probe()(sim::ProbeEvent::ReadOnlyEnd, ctx.localTime, txSeq);
}

bool
Thread::writeCommitRecord(std::uint32_t step)
{
    auto log_commit = [&]() {
        auto res = sys.swlog()->logCommit(ctx.id(), txSeq,
                                          ctx.localTime);
        ctx.localTime = std::max(ctx.localTime, res.done);
        ctx.instr.total += res.instructions;
        ctx.instr.logStores += res.logStores;
    };
    auto hw_commit = [&]() {
        Tick done = sys.hwl()->onCommit(ctx.id(), txSeq, ctx.localTime);
        ctx.localTime = std::max(ctx.localTime, done);
    };
    auto clwb_write_set = [&]() {
        for (Addr line : sys.txns().writeSet(txSeq))
            execClwb(line);
        execFence();
    };

    switch (sys.mode()) {
      case PersistMode::NonPers:
        return false;
      case PersistMode::UnsafeRedo:
      case PersistMode::UnsafeUndo:
        // Commit record only; no ordering enforcement ("unsafe").
        log_commit();
        return false;
      case PersistMode::RedoClwb:
        // Redo logging: the transaction commits once the log is
        // durable; the write-set is then flushed so the log can be
        // truncated (Section II-C).
        if (step == 0) {
            log_commit();
            execFence();
            return true;
        }
        if (step == 1) {
            clwb_write_set();
            return true;
        }
        return false;
      case PersistMode::UndoClwb:
        // Undo logging: the write-set must be durable before the
        // commit record (Figure 1(a)).
        if (step == 0) {
            clwb_write_set();
            return true;
        }
        if (step == 1) {
            log_commit();
            execFence();
            return true;
        }
        return false;
      case PersistMode::HwRlog:
      case PersistMode::HwUlog:
      case PersistMode::Fwb:
        // Instant transaction commit (Section III-D): one hardware
        // commit record, no flushes, no barriers.
        hw_commit();
        return false;
      case PersistMode::Hwl:
        // HWL without FWB: hardware logging, but the write-set is
        // still flushed with clwb at commit (Section VI).
        if (step == 0) {
            hw_commit();
            clwb_write_set();
            return true;
        }
        return false;
    }
    return false;
}

bool
Thread::execTxEnd(TxEndOp &op)
{
    if (op.step == 0) {
        SNF_ASSERT(inTx, "%s outside transaction on core %u",
                   op.aborting ? "abort" : "commit", ctx.id());
        // TL2 commit validation may divert the commit into a
        // rollback; the workload observes lastTxAborted() and may
        // retry the transaction.
        if (!op.aborting && !beginCommit())
            op.aborting = true;
        // Software logging ends a transaction that wrote nothing with
        // no commit record, fence or log drain: recovery has nothing
        // to redo or undo for it. Hardware logging keeps its record,
        // which costs the core nothing.
        op.recordless = endsWithoutRecord();
        if (op.aborting)
            beginAbort(op.recordless);
    }
    if (!op.recordless && writeCommitRecord(op.step++))
        return false;
    endTx(op);
    return true;
}

bool
Thread::beginCommit()
{
    // TL2 validation work is charged whether it passes or not. A
    // pre-validated transaction (txValidate) already paid it and
    // must not revalidate: its serialization point was the early
    // validation, and a conflicting commit landing since then is
    // ordered after it, not a conflict.
    if (std::size_t rs =
            txPreValidated ? 0 : sys.txns().readSetSize(txSeq)) {
        std::uint64_t n = kCcValidateInstructions * rs;
        ctx.instr.total += n;
        ctx.instr.txOverhead += n;
        ctx.retireCompute(n);
    }
    if (!txPreValidated && !sys.txns().validateReads(txSeq))
        return false;
    lastAborted = false;

    // Emitted at commit *initiation*: a commit record can reach
    // NVRAM at any point during the sequence, so trace-based upper
    // bounds on recovered-committed counts must count from here, not
    // from the sequence's end.
    if (sys.probe())
        sys.probe()(sim::ProbeEvent::TxCommit, ctx.localTime, txSeq);
    return true;
}

void
Thread::beginAbort(bool recordless)
{
    // Emitted at abort initiation: under undo-capable modes the
    // rollback ends in a commit record (see below), so crash-trace
    // commit upper bounds must count aborts from here too, unless a
    // ReadOnlyEnd follows.
    if (sys.probe())
        sys.probe()(sim::ProbeEvent::TxAbort, ctx.localTime, txSeq);
    lastAborted = true;

    // Rollback needs in-log undo values. Redo-only and
    // non-persistent modes have none (the very limitation motivating
    // combined undo+redo logging, Section II-B): dropping the
    // transaction would leave its stolen stores in place, so fail
    // loudly instead of corrupting. Workloads must gate aborting
    // transactions on supportsAbort().
    //
    // Exception: a transaction with an EMPTY write-set stole
    // nothing, so aborting it is sound under any mode — it merely
    // releases CC locks and, under hardware logging, closes the
    // (empty) log generation. The
    // OLTP engines' no-steal discipline relies on this: under
    // redo-only modes every conflict (2PL deadlock, TL2 validation)
    // is discovered before the first store, so the rollback is
    // always of this trivial kind.
    SNF_ASSERT(supportsAbort(sys.mode()) ||
                   sys.txns().writeSet(txSeq).empty(),
               "tx_abort on core %u under mode %s: no undo values "
               "to roll back with",
               ctx.id(), persistModeName(sys.mode()));
    if (recordless)
        return;

    // Roll back through the log (paper Section IV-A tx_abort): read
    // this transaction's undo values back from the drained log window
    // and write them as compensating stores, newest first. The stores
    // go through the normal transactional store path, so they are
    // themselves logged (undo-of-undo) and a crash mid-rollback still
    // recovers to a consistent state. The compensated lines are all
    // write-locked by this transaction under a CC mode, so the stores
    // cannot race a concurrent owner. The generation then closes with
    // an ordinary commit record: replaying original-then-compensating
    // updates in log order reproduces the rolled-back state, so
    // recovery needs no special abort handling.
    ctx.localTime = std::max(ctx.localTime, sys.drainLogs(ctx.localTime));
    for (const auto &e : sys.collectUndo(txSeq))
        execStore(e.addr, e.size, e.undo);
}

void
Thread::endTx(const TxEndOp &op)
{
    if (op.aborting) {
        if (op.recordless)
            announceReadOnlyEnd();
        sys.txns().abort(txSeq);
    } else {
        sys.txns().commit(txSeq);
        if (op.recordless) {
            announceReadOnlyEnd();
        } else if (sys.probe() &&
                   (sys.mode() == PersistMode::RedoClwb ||
                    sys.mode() == PersistMode::UndoClwb)) {
            // For the clwb+fence software schemes the commit record
            // is durable once the commit sequence's fence has
            // completed, i.e. by localTime here (hardware modes
            // report durability from the log buffer's drain instead).
            sys.probe()(sim::ProbeEvent::CommitDurable, ctx.localTime,
                        txSeq);
        }
    }
    inTx = false;
    txSeq = 0;
    ctx.instr.total += kTxLibraryInstructions;
    ctx.instr.txOverhead += kTxLibraryInstructions;
    ctx.retireCompute(kTxLibraryInstructions);
}

bool
Thread::execTxValidate()
{
    SNF_ASSERT(inTx, "tx_validate outside transaction on core %u",
               ctx.id());
    if (std::size_t rs = sys.txns().readSetSize(txSeq)) {
        std::uint64_t n = kCcValidateInstructions * rs;
        ctx.instr.total += n;
        ctx.instr.txOverhead += n;
        ctx.retireCompute(n);
    }
    if (!sys.txns().validateReads(txSeq))
        return false;
    txPreValidated = true;
    return true;
}

std::uint64_t
Thread::execCas(Addr a, std::uint64_t expected, std::uint64_t desired)
{
    ctx.instr.total += 1;
    ctx.instr.atomics += 1;
    std::uint64_t old_val = 0;
    auto lr = sys.mem().load(ctx.id(), a, 8, &old_val, ctx.localTime);
    ctx.localTime = lr.done;
    if (old_val == expected) {
        mem::MemorySystem::StoreCtx sctx;
        sctx.persistent = inTx && sys.config().map.isNvram(a);
        sctx.txSeq = txSeq;
        if (sctx.persistent)
            sys.txns().recordWrite(txSeq, sys.mem().lineOf(a));
        auto sr =
            sys.mem().store(ctx.id(), a, 8, &desired, ctx.localTime,
                            sctx);
        ctx.localTime += 1;
        ctx.noteStoreDrain(sr.done);
    }
    return old_val;
}

void
Thread::chargeCcProbe()
{
    // The lock-table probe models as a couple of ALU ops; the wait
    // itself is the caller's backoff compute.
    ctx.instr.total += kCcAcquireInstructions;
    ctx.instr.txOverhead += kCcAcquireInstructions;
    ctx.retireCompute(kCcAcquireInstructions);
}

persist::CcDecision
Thread::execCcAcquire(Addr a, bool forWrite)
{
    chargeCcProbe();
    return sys.txns().acquireLine(txSeq, sys.mem().lineOf(a),
                                  forWrite);
}

bool
Thread::ccGrantedInPlace(Addr a, bool forWrite)
{
    const CcMode cc = sys.txns().ccMode();
    if (cc == CcMode::None || !inTx || !sys.config().map.isNvram(a))
        return true;
    if (!forWrite && cc == CcMode::Tl2)
        return false;
    // acquireLine's branch for a line the transaction holds: Granted,
    // no counter moves, and the waits-for edge stays 0 (it is set
    // only inside ccAcquire's retry loop).
    if (sys.txns().lockOwnerOf(sys.mem().lineOf(a)) != txSeq ||
        !ctx.claimInPlace())
        return false;
    chargeCcProbe();
    return true;
}

sim::Co<bool>
Thread::ccAcquire(Addr a, bool forWrite)
{
    std::uint32_t backoff = kCcBackoffBase;
    for (;;) {
        persist::CcDecision d =
            co_await CcAcquireOp(this, a, forWrite);
        if (d == persist::CcDecision::Granted)
            co_return true;
        if (d == persist::CcDecision::Abort)
            co_return false;
        // Holder still running: back off (thread-salted so two
        // symmetric waiters don't reprobe in lockstep) and retry.
        co_await compute(backoff + ctx.id());
        backoff = std::min(backoff * 2, kCcBackoffCap);
    }
}

sim::Co<bool>
Thread::txStore64(Addr a, std::uint64_t v)
{
    if (!ccGrantedInPlace(a, true)) {
        // The await must be hoisted out of the if condition: awaiting
        // a Co<> temporary inside a condition miscompiles under GCC
        // 12's coroutine lowering (the child frame resumes at a bogus
        // suspend index and the op never parks).
        bool granted = co_await ccAcquire(a, true);
        if (!granted)
            co_return false;
    }
    co_await store64(a, v);
    co_return true;
}

sim::Co<bool>
Thread::txLock64(Addr a)
{
    if (ccGrantedInPlace(a, true))
        co_return true;
    bool granted = co_await ccAcquire(a, true); // see txStore64
    co_return granted;
}

sim::Co<bool>
Thread::txLoad64(Addr a, std::uint64_t *out)
{
    if (!ccGrantedInPlace(a, false)) {
        bool granted = co_await ccAcquire(a, false); // see txStore64
        if (!granted)
            co_return false;
    }
    *out = co_await load64(a);
    co_return true;
}

sim::Co<void>
Thread::loadBytes(Addr a, void *out, std::uint32_t len)
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(8 - (a % 8), len));
        std::uint64_t v = co_await LoadOp(this, a, chunk);
        std::memcpy(dst, &v, chunk);
        a += chunk;
        dst += chunk;
        len -= chunk;
    }
}

sim::Co<void>
Thread::storeBytes(Addr a, const void *in, std::uint32_t len)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    while (len > 0) {
        std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(8 - (a % 8), len));
        std::uint64_t v = 0;
        std::memcpy(&v, src, chunk);
        co_await StoreOp(this, a, v, chunk);
        a += chunk;
        src += chunk;
        len -= chunk;
    }
}

sim::Co<void>
Thread::lockAcquire(Addr a)
{
    std::uint32_t backoff = 4;
    while (true) {
        std::uint64_t old_val = co_await cas64(a, 0, 1);
        if (old_val == 0)
            co_return;
        co_await compute(backoff);
        backoff = std::min<std::uint32_t>(backoff * 2, 256);
    }
}

sim::Co<void>
Thread::lockRelease(Addr a)
{
    co_await store64(a, 0);
}

} // namespace snf
