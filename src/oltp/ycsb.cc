#include "oltp/ycsb.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "mem/backing_store.hh"
#include "sim/logging.hh"

namespace snf::oltp
{

namespace
{

constexpr unsigned kMaxTxAttempts = 200;
constexpr std::uint64_t kMaxBackoff = 2048;

/** Words verify() reads per record: the version, then the payload. */
constexpr std::uint64_t kRecordWords = 1 + YcsbEngine::kPayloadWords;

/**
 * Check one record's words (@p w: version, then payload): every
 * payload word must equal the version. Describes the first mismatch
 * in @p why.
 */
bool
recordIntact(std::uint64_t key, const std::uint64_t (&w)[kRecordWords],
             std::string *why)
{
    for (std::uint64_t p = 0; p < YcsbEngine::kPayloadWords; ++p) {
        if (w[1 + p] == w[0])
            continue;
        if (why) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "key %" PRIu64 ": payload word %" PRIu64
                          " = %" PRIu64 " but version %" PRIu64
                          " (torn update)",
                          key, p, w[1 + p], w[0]);
            *why = buf;
        }
        return false;
    }
    return true;
}

} // namespace

void
YcsbEngine::setup(System &sys, const WorkloadParams &params)
{
    nkeys = params.footprint ? params.footprint : 65536;
    theta = params.zipfTheta != 0.0 ? params.zipfTheta : 0.8;
    SNF_ASSERT(theta > 0.0 && theta < 1.0,
               "oltp-ycsb: zipf theta %.3f outside (0, 1)", theta);
    ccOn = sys.config().persist.ccMode != CcMode::None;
    if (!ccOn && nkeys < params.threads)
        fatal("oltp-ycsb: %u threads over %" PRIu64
              " keys share rows; give each thread a key (--footprint) "
              "or pick a CC scheme (--cc 2pl|tl2)",
              params.threads, nkeys);

    // Records start all-zero (version 0, payload 0), which already
    // satisfies the payload == version invariant — no prewrites, so
    // setup stays O(1) even for millions of keys.
    records = sys.heap().alloc(nkeys * kRecordBytes, 64);
    dramIndex = sys.dramHeap().alloc(nkeys * 8, 64);
    zipf.reset();

    resetMetrics({"read", "update"});
}

sim::Co<void>
YcsbEngine::thread(System &sys, Thread &t,
                   const WorkloadParams &params)
{
    sim::Rng rng(params.seed * 5519 + t.id() * 257 + 3);
    const bool canAbort = supportsAbort(sys.mode());
    const bool noSteal = ccOn && !canAbort;

    // With CC, all threads sample the shared keyspace; without, each
    // thread owns the keys congruent to its id. Either way perThread
    // is the same for every thread, so the first one to run builds
    // the sampler and the rest reuse it.
    const std::uint64_t perThread =
        ccOn ? nkeys : nkeys / params.threads;
    if (!zipf)
        zipf.emplace(perThread, theta);
    SNF_ASSERT(zipf->n() == perThread,
               "oltp-ycsb: shared Zipf over %" PRIu64
               " keys, core %u wants %" PRIu64,
               zipf->n(), t.id(), perThread);

    for (std::uint64_t n = 0; n < params.txPerThread; ++n) {
        std::uint64_t s = zipf->sample(rng);
        std::uint64_t key = ccOn ? s : s * params.threads + t.id();
        bool update = rng.below(2) == 0;
        std::size_t type = update ? kUpdate : kRead;
        Addr rec = recordAddr(key);

        Tick start = t.context().localTime;
        std::uint64_t backoff = 16;
        bool done = false;
        for (unsigned attempt = 0; attempt < kMaxTxAttempts;
             ++attempt) {
            TxExec x(sys, t, noSteal);
            co_await t.txBegin();
            // Hash-index probe in volatile DRAM.
            co_await t.load64(dramIndex + key * 8);
            co_await t.compute(70); // key hashing, request parsing

            std::uint64_t ver = 0;
            co_await x.load(rec + 0, &ver);
            if (update && !x.doomed()) {
                co_await t.compute(12); // payload formatting
                co_await x.store(rec + 0, ver + 1);
                for (std::uint64_t p = 0; p < kPayloadWords; ++p)
                    co_await x.store(rec + 8 + p * 8, ver + 1);
            } else if (!x.doomed()) {
                std::uint64_t payload = 0;
                for (std::uint64_t p = 0; p < kPayloadWords; ++p)
                    co_await x.load(rec + 8 + p * 8, &payload);
                co_await t.compute(8); // response serialization
            }

            if (!x.doomed())
                co_await x.finish();
            if (x.doomed()) {
                co_await t.txAbort();
                ++retriesCount;
                co_await t.compute(backoff + t.id());
                if (backoff < kMaxBackoff)
                    backoff *= 2;
                continue;
            }
            co_await t.txCommit();
            bool aborted = t.lastTxAborted();
            if (aborted) {
                ++retriesCount;
                co_await t.compute(backoff + t.id());
                if (backoff < kMaxBackoff)
                    backoff *= 2;
                continue;
            }
            TxTypeMetrics &m = typeMetrics(type);
            ++m.committed;
            m.latency.record(t.context().localTime - start);
            done = true;
            break;
        }
        SNF_ASSERT(done,
                   "oltp-ycsb: transaction starved after %u attempts "
                   "on core %u",
                   kMaxTxAttempts, t.id());
        (void)canAbort;
    }
}

bool
YcsbEngine::verify(const mem::BackingStore &nvram,
                   std::string *why) const
{
    // Walk the keyspace a page at a time, in key order so the lowest
    // failing key is the one reported. A never-written page reads as
    // all-zero records, which are valid, so it is skipped whole.
    std::uint64_t w[kRecordWords];
    for (std::uint64_t k = 0; k < nkeys;) {
        std::uint64_t avail = 0;
        const std::uint8_t *page = nvram.pageAt(recordAddr(k), &avail);
        const std::uint64_t inPage =
            std::min(nkeys - k, avail / kRecordBytes);
        if (inPage == 0) {
            // The record straddles the end of the page or the store.
            nvram.read(recordAddr(k), sizeof(w), w);
            if (!recordIntact(k, w, why))
                return false;
            ++k;
            continue;
        }
        for (std::uint64_t i = 0; page && i < inPage; ++i) {
            std::memcpy(w, page + i * kRecordBytes, sizeof(w));
            if (!recordIntact(k + i, w, why))
                return false;
        }
        k += inPage;
    }
    return true;
}

} // namespace snf::oltp
