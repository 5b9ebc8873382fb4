/**
 * @file
 * The workload-facing thread API: coroutine awaitables for simulated
 * loads, stores, compute, atomics, and persistent-memory transactions
 * (tx_begin / tx_commit of paper Section IV-A).
 *
 * An awaited operation suspends the workload coroutine back to the
 * scheduler, which executes it when this thread is globally earliest.
 * Two kinds read and write only this thread's state and run in place
 * instead, below the scheduler's stop tick (cpu/scheduler.hh says why
 * the result is the same): compute(), and the CC probe of a
 * transactional access to a line the open transaction already locks
 * (ccGrantedInPlace). Under software-logging modes the transaction
 * operations expand into the extra logging instructions of Figure
 * 2(a); under hardware modes they reduce to the register writes of
 * Figure 2(b).
 */

#ifndef SNF_CORE_THREAD_API_HH
#define SNF_CORE_THREAD_API_HH

#include <cstdint>

#include "cpu/thread_context.hh"
#include "core/system_config.hh"
#include "mem/memory_system.hh"
#include "persist/hwl_engine.hh"
#include "persist/sw_logging.hh"
#include "persist/txn_tracker.hh"
#include "sim/coro.hh"
#include "sim/types.hh"

namespace snf
{

class System;

/** See file comment. */
class Thread
{
  public:
    Thread(CoreId id, System &system);

    Thread(const Thread &) = delete;
    Thread &operator=(const Thread &) = delete;

    CoreId id() const { return ctx.id(); }

    cpu::ThreadContext &context() { return ctx; }

    bool inTransaction() const { return inTx; }

    // ----- awaitable operations ----------------------------------

    /** Common awaiter plumbing: parks the op and suspends. */
    template <typename Derived, typename Result>
    struct OpAwaiter : cpu::PendingOp
    {
        Thread *t;
        Result result{};

        explicit OpAwaiter(Thread *thread) : t(thread) {}

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            t->ctx.pending = this;
            t->ctx.resumePoint = h;
        }

        Result await_resume() const noexcept { return result; }

        void
        execute() override
        {
            static_cast<Derived *>(this)->run();
        }
    };

    struct VoidAwaiter : cpu::PendingOp
    {
        Thread *t;

        explicit VoidAwaiter(Thread *thread) : t(thread) {}

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            t->ctx.pending = this;
            t->ctx.resumePoint = h;
        }

        void await_resume() const noexcept {}
    };

    struct LoadOp : OpAwaiter<LoadOp, std::uint64_t>
    {
        Addr addr;
        std::uint32_t size;

        LoadOp(Thread *t, Addr a, std::uint32_t s)
            : OpAwaiter(t), addr(a), size(s)
        {
        }

        void run() { result = t->execLoad(addr, size); }
    };

    struct StoreOp : VoidAwaiter
    {
        Addr addr;
        std::uint64_t value;
        std::uint32_t size;

        StoreOp(Thread *t, Addr a, std::uint64_t v, std::uint32_t s)
            : VoidAwaiter(t), addr(a), value(v), size(s)
        {
        }

        void execute() override { t->execStore(addr, size, value); }
    };

    struct ComputeOp : VoidAwaiter
    {
        std::uint64_t amount;

        ComputeOp(Thread *t, std::uint64_t n)
            : VoidAwaiter(t), amount(n)
        {
        }

        /** Runs in place below the stop tick (see file comment). */
        bool
        await_ready() noexcept
        {
            if (!t->ctx.claimInPlace())
                return false;
            t->execCompute(amount);
            return true;
        }

        void execute() override { t->execCompute(amount); }
    };

    struct TxBeginOp : VoidAwaiter
    {
        using VoidAwaiter::VoidAwaiter;

        void execute() override { t->execTxBegin(); }
    };

    /**
     * A commit or abort sequence. Every fence in it ends a step: the
     * op parks itself again at the fence's completion tick, and the
     * workload resumes only after the last step, which releases the
     * transaction (DESIGN §5a).
     */
    struct TxEndOp : VoidAwaiter
    {
        /** Rolls back: txAbort(), or a commit whose TL2 validation
         *  failed. */
        bool aborting;
        /** Ends with no log record (endsWithoutRecord): one step. */
        bool recordless = false;
        /** Steps of the commit-record sequence run so far. */
        std::uint32_t step = 0;

        TxEndOp(Thread *t, bool abort) : VoidAwaiter(t), aborting(abort)
        {
        }

        void
        execute() override
        {
            if (!t->execTxEnd(*this))
                t->ctx.pending = this;
        }
    };

    struct ClwbOp : VoidAwaiter
    {
        Addr addr;

        ClwbOp(Thread *t, Addr a) : VoidAwaiter(t), addr(a) {}

        void execute() override { t->execClwb(addr); }
    };

    struct FenceOp : VoidAwaiter
    {
        using VoidAwaiter::VoidAwaiter;

        void execute() override { t->execFence(); }
    };

    struct CcAcquireOp : OpAwaiter<CcAcquireOp, persist::CcDecision>
    {
        Addr addr;
        bool forWrite;

        CcAcquireOp(Thread *t, Addr a, bool w)
            : OpAwaiter(t), addr(a), forWrite(w)
        {
        }

        void run() { result = t->execCcAcquire(addr, forWrite); }
    };

    struct TxValidateOp : OpAwaiter<TxValidateOp, bool>
    {
        using OpAwaiter::OpAwaiter;

        void run() { result = t->execTxValidate(); }
    };

    struct CasOp : OpAwaiter<CasOp, std::uint64_t>
    {
        Addr addr;
        std::uint64_t expected;
        std::uint64_t desired;

        CasOp(Thread *t, Addr a, std::uint64_t e, std::uint64_t d)
            : OpAwaiter(t), addr(a), expected(e), desired(d)
        {
        }

        void run() { result = t->execCas(addr, expected, desired); }
    };

    LoadOp load64(Addr a) { return LoadOp(this, a, 8); }

    LoadOp load32(Addr a) { return LoadOp(this, a, 4); }

    StoreOp store64(Addr a, std::uint64_t v)
    {
        return StoreOp(this, a, v, 8);
    }

    StoreOp store32(Addr a, std::uint32_t v)
    {
        return StoreOp(this, a, v, 4);
    }

    /** Retire @p n generic (non-memory) instructions. */
    ComputeOp compute(std::uint64_t n) { return ComputeOp(this, n); }

    /** tx_begin(txid): open a persistent-memory transaction. */
    TxBeginOp txBegin() { return TxBeginOp(this); }

    /** tx_commit(): close the transaction (mode-dependent cost). */
    TxEndOp txCommit() { return TxEndOp(this, false); }

    /**
     * tx_abort(): roll the transaction back via its in-log undo
     * values and discard it. Only legal when supportsAbort(mode):
     * redo-only and non-persistent modes have no undo values to roll
     * back with (the limitation motivating combined undo+redo
     * logging, paper Section II-B), so awaiting this under one of
     * them panics instead of silently leaving the stolen stores in
     * place.
     */
    TxEndOp txAbort() { return TxEndOp(this, true); }

    /**
     * Did the last awaited txCommit()/txAbort() end in a rollback?
     * txCommit() aborts instead of committing when TL2 commit
     * validation fails; the workload checks this flag and retries
     * the transaction.
     */
    bool lastTxAborted() const { return lastAborted; }

    /** Sequence number of the transaction in progress (0 = none). */
    std::uint64_t currentTxSeq() const { return inTx ? txSeq : 0; }

    /** Explicit cache-line write-back (clwb). */
    ClwbOp clwb(Addr a) { return ClwbOp(this, a); }

    /** Memory barrier (sfence-like). */
    FenceOp fence() { return FenceOp(this); }

    /** Atomic compare-and-swap; returns the old value. */
    CasOp cas64(Addr a, std::uint64_t expected, std::uint64_t desired)
    {
        return CasOp(this, a, expected, desired);
    }

    // ----- concurrency-controlled transactional accesses ---------

    /**
     * Transactional 64-bit store under the configured CC scheme
     * (PersistConfig::ccMode): acquires the line's exclusive lock at
     * encounter time (retrying with bounded exponential backoff
     * while another transaction holds it), then performs the store.
     * Returns false when waiting would deadlock — the transaction
     * must then roll back via txAbort() and may retry from
     * tx_begin. With CC disabled this is exactly store64().
     */
    sim::Co<bool> txStore64(Addr a, std::uint64_t v);

    /**
     * Transactional 64-bit load into @p out. Under 2PL the line's
     * exclusive lock is taken like a write; under TL2 the line's
     * commit version is recorded instead and revalidated at
     * txCommit(), which diverts to rollback on conflict. Returns
     * false when waiting would deadlock (see txStore64).
     */
    sim::Co<bool> txLoad64(Addr a, std::uint64_t *out);

    /**
     * Declare write intent on @p a's line without storing: acquires
     * the line's exclusive CC lock exactly like txStore64 but leaves
     * the data untouched. The OLTP engines' no-steal commit
     * discipline (DESIGN §8) locks the whole write-set up front,
     * validates, and only then stores — so under redo-only modes
     * every conflict is discovered while the write-set is still
     * empty and rollback needs no undo values. Returns false when
     * waiting would deadlock. With CC disabled this is a no-op
     * returning true.
     */
    sim::Co<bool> txLock64(Addr a);

    /**
     * TL2 early validation: run commit-time read validation now,
     * with the write locks already held. On success the transaction
     * is marked pre-validated and txCommit() skips revalidation —
     * the validation instant (reads valid, write-set locked) is the
     * transaction's serialization point, so stores performed after
     * it commute with later conflicting commits. The caller must not
     * issue further transactional loads after a successful
     * txValidate(). Returns false (the validation work is charged
     * either way) on conflict; the transaction must then roll back.
     * Trivially true under 2PL and with CC disabled.
     */
    TxValidateOp txValidate() { return TxValidateOp(this); }

    /**
     * May a transactional access to @p a go ahead without a scheduled
     * CC probe? True when CC does not apply to it (no scheme, no open
     * transaction, or a DRAM address), or when the open transaction
     * already holds the line's lock and the access needs no TL2
     * read-set entry (a 2PL access or a TL2 write): the probe then
     * runs in place, charged as a scheduled one is, and changes
     * nothing else. Only the holder's own commit or abort releases a
     * lock, so no other thread can change the answer. False when the
     * probe must be scheduled (another line, a TL2 read, or a clock
     * at or past the stop tick): txLoad64, txStore64 and txLock64
     * then acquire the line through the scheduler.
     */
    bool ccGrantedInPlace(Addr a, bool forWrite);

    /** Lock-table probe cost of one CC acquire, in instructions. */
    static constexpr std::uint64_t kCcAcquireInstructions = 2;

    /** Multi-word load into @p out (splits at 8-byte boundaries). */
    sim::Co<void> loadBytes(Addr a, void *out, std::uint32_t len);

    /** Multi-word store from @p in (splits at 8-byte boundaries). */
    sim::Co<void> storeBytes(Addr a, const void *in, std::uint32_t len);

    /** Spin until the 64-bit lock word at @p a is acquired. */
    sim::Co<void> lockAcquire(Addr a);

    /** Release the lock word at @p a. */
    sim::Co<void> lockRelease(Addr a);

  private:
    friend class System;

    /** The CC acquire loop shared by txStore64/txLoad64/txLock64,
     *  for an access ccGrantedInPlace did not grant. */
    sim::Co<bool> ccAcquire(Addr a, bool forWrite);

    /** Charge one CC lock-table probe to the core. */
    void chargeCcProbe();

    std::uint64_t execLoad(Addr a, std::uint32_t size);
    void execStore(Addr a, std::uint32_t size, std::uint64_t v);
    persist::CcDecision execCcAcquire(Addr a, bool forWrite);
    void execCompute(std::uint64_t n);
    void execTxBegin();
    bool execTxValidate();
    void execClwb(Addr a);
    void execFence();
    std::uint64_t execCas(Addr a, std::uint64_t expected,
                          std::uint64_t desired);

    /** Run the next step of @p op; true once it ran the last. */
    bool execTxEnd(TxEndOp &op);

    /** A commit's first step up to its record: TL2 validation, then
     *  TxCommit. False when validation failed. */
    bool beginCommit();

    /** An abort's first step up to its record: TxAbort, then the
     *  compensating stores unless @p recordless. */
    void beginAbort(bool recordless);

    /** The last step of @p op: release the transaction and announce
     *  where it ends in durable order. */
    void endTx(const TxEndOp &op);

    /**
     * Step @p step of the mode-specific commit-record sequence
     * (shared by commit and the rollback-closing record of abort).
     * @return true when the step ended at a fence and the sequence
     *         goes on at the fence's completion tick.
     */
    bool writeCommitRecord(std::uint32_t step);

    /** Does the open transaction end with no log record? Under
     *  software logging, exactly when it wrote nothing. */
    bool endsWithoutRecord() const;

    /** Probe ReadOnlyEnd for the open transaction (sim/probe.hh). */
    void announceReadOnlyEnd();

    cpu::ThreadContext ctx;
    System &sys;
    bool inTx = false;
    bool lastAborted = false;
    /** txValidate() succeeded for the open tx: commit skips TL2
     *  revalidation (the validation was the serialization point). */
    bool txPreValidated = false;
    std::uint64_t txSeq = 0;
};

} // namespace snf

#endif // SNF_CORE_THREAD_API_HH
