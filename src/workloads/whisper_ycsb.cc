#include "workloads/whisper_ycsb.hh"

#include "sim/logging.hh"

namespace snf::workloads
{

void
WhisperYcsb::setup(System &sys, const WorkloadParams &params)
{
    nrecords = params.footprint != 0 ? params.footprint : 2048;
    records = sys.heap().alloc(nrecords * kRecordBytes, 64);
    locks = sys.dramHeap().alloc(nrecords * 8, 64);
    index = sys.dramHeap().alloc(nrecords * 16, 64);
    zipf.emplace(nrecords, 0.8);
    for (std::uint64_t k = 0; k < nrecords; ++k) {
        sys.heap().prewrite64(recordAddr(k), 1);
        for (std::uint64_t w = 0; w < kPayloadWords; ++w)
            sys.heap().prewrite64(recordAddr(k) + 8 + w * 8, 1);
    }
}

sim::Co<void>
WhisperYcsb::thread(System &sys, Thread &t,
                    const WorkloadParams &params)
{
    (void)sys;
    sim::Rng rng(params.seed * 7127 + t.id());

    for (std::uint64_t n = 0; n < params.txPerThread; ++n) {
        std::uint64_t k = zipf->sample(rng);
        Addr rec = recordAddr(k);
        Addr lock = locks + k * 8;

        // Volatile index probe and request parsing (the DB engine
        // work around the persistent record access).
        co_await t.load64(index + k * 16);
        co_await t.load64(index + k * 16 + 8);
        co_await t.compute(70);

        if (rng.chance(0.5)) {
            // Read: whole-record scan (outside any transaction).
            co_await t.txBegin();
            for (std::uint64_t w = 0; w <= kPayloadWords; ++w)
                co_await t.load64(rec + w * 8);
            co_await t.compute(10);
            co_await t.txCommit();
        } else {
            // Update: lock, bump version, rewrite the payload.
            co_await t.lockAcquire(lock);
            co_await t.txBegin();
            std::uint64_t v = co_await t.load64(rec);
            std::uint64_t nv = v + 1;
            co_await t.store64(rec, nv);
            for (std::uint64_t w = 0; w < kPayloadWords; ++w)
                co_await t.store64(rec + 8 + w * 8, nv);
            co_await t.compute(12);
            co_await t.txCommit();
            co_await t.lockRelease(lock);
        }
    }
}

bool
WhisperYcsb::verify(const mem::BackingStore &nvram,
                    std::string *why) const
{
    for (std::uint64_t k = 0; k < nrecords; ++k) {
        Addr rec = recordAddr(k);
        std::uint64_t v = nvram.read64(rec);
        if (v == 0) {
            if (why)
                *why = strfmt("record %llu: zero version",
                              static_cast<unsigned long long>(k));
            return false;
        }
        for (std::uint64_t w = 0; w < kPayloadWords; ++w) {
            std::uint64_t pw = nvram.read64(rec + 8 + w * 8);
            if (pw != v) {
                if (why)
                    *why = strfmt("record %llu word %llu: %llu != "
                                  "version %llu (torn update)",
                                  static_cast<unsigned long long>(k),
                                  static_cast<unsigned long long>(w),
                                  static_cast<unsigned long long>(pw),
                                  static_cast<unsigned long long>(v));
                return false;
            }
        }
    }
    return true;
}

} // namespace snf::workloads
