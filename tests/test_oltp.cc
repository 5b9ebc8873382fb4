/**
 * @file
 * OLTP engine tests (DESIGN §8, ctest label `oltp`): the TPC-C
 * consistency oracle after clean runs AND after crash-point recovery
 * under every guaranteed mode × CC scheme, the oracle's own teeth (a
 * corrupted image must be rejected), YCSB torn-update detection at a
 * large Zipf-skewed keyspace, the page-wise YCSB and TPC-C oracles
 * against their per-word references, counter determinism across
 * repeats and across host --jobs, log occupancy summed over every
 * shard's log buffer, the no-steal empty-write-set abort being legal
 * under redo-only logging, the contended multi-shard crash sweep
 * (I1–I8), the latency histogram's quantile contract, the count of
 * cycles log reclaims wait for forced write-backs, the live records a
 * log smaller than the live write sets loses, and how many ops a TPC-C
 * cell still parks for the scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "crashlab/sweep.hh"
#include "oltp/bench.hh"
#include "oltp/latency.hh"
#include "oltp/tpcc.hh"
#include "oltp/ycsb.hh"
#include "workloads/driver.hh"

using namespace snf;
using namespace snf::oltp;
using namespace snf::workloads;

namespace
{

/** A contended OLTP cell: more threads than warehouses. */
RunSpec
oltpSpec(const std::string &wl, PersistMode mode, CcMode cc)
{
    RunSpec spec;
    spec.workload = wl;
    spec.mode = mode;
    spec.params.threads = 4;
    spec.params.txPerThread = 120;
    spec.params.footprint = 64;
    spec.params.warehouses = 2;
    spec.params.seed = 5;
    spec.sys = SystemConfig::scaled(spec.params.threads);
    spec.sys.persist.ccMode = cc;
    return spec;
}

std::string
oltpCellName(const ::testing::TestParamInfo<
             std::tuple<PersistMode, CcMode>> &info)
{
    std::string n =
        std::string(persistModeName(std::get<0>(info.param))) + "_" +
        ccModeName(std::get<1>(info.param));
    for (auto &c : n)
        if (c == '-')
            c = '_';
    return n;
}

} // namespace

// ------------------------------------------------------------------
// TPC-C oracle: clean run and crash-point recovery, every guaranteed
// mode × both CC schemes (the ISSUE acceptance matrix).
// ------------------------------------------------------------------

class TpccOracle
    : public ::testing::TestWithParam<std::tuple<PersistMode, CcMode>>
{
};

TEST_P(TpccOracle, CleanRunSatisfiesInvariants)
{
    auto [mode, cc] = GetParam();
    auto outcome = runWorkload(oltpSpec("oltp-tpcc", mode, cc));
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_GT(outcome.stats.committedTx, 0u);
}

TEST_P(TpccOracle, CrashPointRecoverySatisfiesInvariants)
{
    auto [mode, cc] = GetParam();
    for (Tick at : {Tick(60000), Tick(390000)}) {
        RunSpec spec = oltpSpec("oltp-tpcc", mode, cc);
        spec.params.txPerThread = 200;
        spec.sys.persist.crashJournal = true;
        spec.crashAt = at;
        auto outcome = runWorkload(spec);
        EXPECT_TRUE(outcome.verified)
            << persistModeName(mode) << "/" << ccModeName(cc) << " @"
            << at << ": " << outcome.verifyMessage;
    }
}

TEST_P(TpccOracle, YcsbCleanAndCrashRecovery)
{
    auto [mode, cc] = GetParam();
    RunSpec spec = oltpSpec("oltp-ycsb", mode, cc);
    spec.params.footprint = 4096;
    spec.params.zipfTheta = 0.9;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;

    spec.sys.persist.crashJournal = true;
    spec.crashAt = 90000;
    outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified)
        << persistModeName(mode) << "/" << ccModeName(cc) << ": "
        << outcome.verifyMessage;
}

INSTANTIATE_TEST_SUITE_P(
    All, TpccOracle,
    ::testing::Combine(::testing::Values(PersistMode::Fwb,
                                         PersistMode::UndoClwb,
                                         PersistMode::RedoClwb),
                       ::testing::Values(CcMode::TwoPhase,
                                         CcMode::Tl2)),
    oltpCellName);

// ------------------------------------------------------------------
// The oracle has teeth: corrupting one word of a verified image must
// produce a failure with a diagnostic.
// ------------------------------------------------------------------

TEST(TpccOracleTeeth, CorruptedImageIsRejected)
{
    WorkloadParams params;
    params.threads = 2;
    params.txPerThread = 60;
    params.footprint = 48;
    params.warehouses = 2;
    params.seed = 9;

    SystemConfig cfg = SystemConfig::scaled(params.threads);
    cfg.persist.ccMode = CcMode::TwoPhase;
    System sys(cfg, PersistMode::Fwb);
    TpccEngine eng;
    eng.setup(sys, params);
    for (CoreId c = 0; c < params.threads; ++c)
        sys.spawn(c, [&](Thread &t) -> sim::Co<void> {
            return eng.thread(sys, t, params);
        });
    Tick end = sys.run(kTickNever);
    sys.flushAll(end);

    std::string why;
    ASSERT_TRUE(eng.verify(sys.mem().nvram().store(), &why)) << why;

    // Book one phantom dollar into warehouse 0: w_ytd no longer
    // equals the sum of its districts' d_ytd.
    const TpccLayout &lay = eng.layout();
    Addr wytd = lay.warehouseAddr(0);
    std::uint64_t v = sys.mem().nvram().store().read64(wytd) + 1;
    sys.mem().nvram().functionalWrite(wytd, 8, &v);

    EXPECT_FALSE(checkTpccConsistency(sys.mem().nvram().store(), lay,
                                      &why));
    EXPECT_NE(why.find("w_ytd"), std::string::npos) << why;
}

// ------------------------------------------------------------------
// The YCSB oracle has teeth too. verify() walks the image page by
// page (absent pages skipped whole, resident records read in place),
// so it must agree with the per-word reference loop and still reject
// a torn word anywhere in the keyspace.
// ------------------------------------------------------------------

namespace
{

/**
 * A small contended OLTP cell of @p Engine, kept live for its NVRAM
 * image (the crash journal is on, so it can also crash and recover).
 */
template <class Engine>
class OltpCell
{
  public:
    OltpCell(const WorkloadParams &p, CcMode cc, PersistMode mode)
        : params(p)
    {
        SystemConfig cfg = SystemConfig::scaled(params.threads);
        cfg.persist.ccMode = cc;
        cfg.persist.crashJournal = true;
        sys = std::make_unique<System>(cfg, mode);
        eng.setup(*sys, params);
        for (CoreId c = 0; c < params.threads; ++c)
            sys->spawn(c, [this](Thread &t) -> sim::Co<void> {
                return eng.thread(*sys, t, params);
            });
    }

    // The spawned threads hold `this`.
    OltpCell(const OltpCell &) = delete;
    OltpCell &operator=(const OltpCell &) = delete;

    /** Run to completion and flush: the final image. */
    mem::BackingStore
    finalImage()
    {
        sys->flushAll(sys->run(kTickNever));
        return sys->mem().nvram().store();
    }

    /** Crash at @p at and recover: the recovered image. */
    mem::BackingStore
    recoveredImage(Tick at)
    {
        sys->run(at);
        mem::BackingStore image = sys->crashSnapshot(at);
        persist::Recovery::run(image, sys->config().map);
        return image;
    }

    WorkloadParams params;
    std::unique_ptr<System> sys;
    Engine eng;
};

WorkloadParams
ycsbCellParams()
{
    WorkloadParams params;
    params.threads = 4;
    params.txPerThread = 120;
    params.footprint = 65536; // 4 MB of records, mostly untouched
    params.zipfTheta = 0.9;
    params.seed = 5;
    return params;
}

/** A small contended oltp-ycsb cell under undo-clwb. */
struct YcsbCell : OltpCell<YcsbEngine>
{
    explicit YcsbCell(CcMode cc)
        : OltpCell(ycsbCellParams(), cc, PersistMode::UndoClwb)
    {
    }
};

/** The per-word check verify() replaced: a read64 per word. */
bool
referenceVerify(const YcsbEngine &eng, const mem::BackingStore &image)
{
    for (std::uint64_t k = 0; k < eng.keys(); ++k) {
        Addr rec = eng.recordAddr(k);
        for (std::uint64_t p = 1; p <= YcsbEngine::kPayloadWords; ++p)
            if (image.read64(rec + p * 8) != image.read64(rec))
                return false;
    }
    return true;
}

/** Address of key @p k's payload word @p p. */
Addr
payloadAddr(const YcsbEngine &eng, std::uint64_t k, std::uint64_t p)
{
    return eng.recordAddr(k) + 8 + p * 8;
}

/** Verify @p image and return the diagnostic ("" if it passed). */
std::string
verifyWhy(const YcsbEngine &eng, const mem::BackingStore &image)
{
    std::string why;
    return eng.verify(image, &why) ? std::string() : why;
}

} // namespace

TEST(YcsbOracleTeeth, TornPayloadWordInResidentPageIsRejected)
{
    YcsbCell cell(CcMode::Tl2);
    mem::BackingStore image = cell.finalImage();
    ASSERT_EQ(verifyWhy(cell.eng, image), "");

    // The lowest updated key: its page is resident.
    std::uint64_t k = 0;
    while (k < cell.eng.keys() &&
           image.read64(cell.eng.recordAddr(k)) == 0)
        ++k;
    ASSERT_LT(k, cell.eng.keys());
    std::uint64_t ver = image.read64(cell.eng.recordAddr(k));
    image.write64(payloadAddr(cell.eng, k, 2), ver + 7);

    EXPECT_EQ(verifyWhy(cell.eng, image),
              "key " + std::to_string(k) + ": payload word 2 = " +
                  std::to_string(ver + 7) + " but version " +
                  std::to_string(ver) + " (torn update)");
    EXPECT_FALSE(referenceVerify(cell.eng, image));
}

TEST(YcsbOracleTeeth, StrayWordInUntouchedPageIsRejected)
{
    YcsbCell cell(CcMode::Tl2);
    mem::BackingStore image = cell.finalImage();

    // A key in the middle of the keyspace whose page was never written.
    std::uint64_t k = cell.eng.keys() / 2;
    std::uint64_t avail = 0;
    while (k < cell.eng.keys() &&
           image.pageAt(cell.eng.recordAddr(k), &avail) != nullptr)
        ++k;
    ASSERT_LT(k, cell.eng.keys());
    image.write64(payloadAddr(cell.eng, k, 3), 1);

    EXPECT_EQ(verifyWhy(cell.eng, image),
              "key " + std::to_string(k) +
                  ": payload word 3 = 1 but version 0 (torn update)");
    EXPECT_FALSE(referenceVerify(cell.eng, image));
}

TEST(YcsbOracleTeeth, FirstAndLastKeysAreCheckedLowestReported)
{
    YcsbCell cell(CcMode::Tl2);
    const mem::BackingStore clean = cell.finalImage();
    const std::uint64_t last = cell.eng.keys() - 1;

    mem::BackingStore image = clean;
    image.write64(cell.eng.recordAddr(last), 9); // version, not payload
    EXPECT_EQ(verifyWhy(cell.eng, image),
              "key " + std::to_string(last) +
                  ": payload word 0 = 0 but version 9 (torn update)");

    // With key 0 torn as well, the lowest failing key is reported.
    std::uint64_t ver0 = image.read64(cell.eng.recordAddr(0));
    image.write64(payloadAddr(cell.eng, 0, 1), ver0 + 1);
    EXPECT_EQ(verifyWhy(cell.eng, image).rfind("key 0: payload word 1", 0),
              0u)
        << verifyWhy(cell.eng, image);
}

TEST(YcsbVerify, PageWiseWalkAgreesWithPerWordReference)
{
    {
        YcsbCell cell(CcMode::Tl2);
        mem::BackingStore image = cell.finalImage();
        EXPECT_TRUE(cell.eng.verify(image, nullptr));
        EXPECT_TRUE(referenceVerify(cell.eng, image));
    }
    // The cell ends near tick 76 000, so every crash lands mid-run.
    for (Tick at : {Tick(15000), Tick(40000), Tick(65000)}) {
        YcsbCell cell(CcMode::Tl2);
        mem::BackingStore image = cell.recoveredImage(at);
        EXPECT_TRUE(cell.eng.verify(image, nullptr)) << "@" << at;
        EXPECT_TRUE(referenceVerify(cell.eng, image)) << "@" << at;

        // And they agree on a torn recovered image.
        image.write64(payloadAddr(cell.eng, 1, 0),
                      image.read64(cell.eng.recordAddr(1)) + 1);
        EXPECT_FALSE(cell.eng.verify(image, nullptr)) << "@" << at;
        EXPECT_FALSE(referenceVerify(cell.eng, image)) << "@" << at;
    }
}

TEST(YcsbVerify, PartitionedCellVerifiesWithSharedZipf)
{
    // Without CC every thread maps the one shared sampler's draws onto
    // its own keys (k % threads == id): each partition gets updates,
    // and the image still verifies.
    YcsbCell cell(CcMode::None);
    mem::BackingStore image = cell.finalImage();
    EXPECT_EQ(verifyWhy(cell.eng, image), "");
    for (std::uint32_t id = 0; id < cell.params.threads; ++id) {
        bool updated = false;
        for (std::uint64_t k = id; k < cell.eng.keys() && !updated;
             k += cell.params.threads)
            updated = image.read64(cell.eng.recordAddr(k)) != 0;
        EXPECT_TRUE(updated) << "no update in thread " << id
                             << "'s partition";
    }
}

// ------------------------------------------------------------------
// The TPC-C oracle reads its rows a page span at a time, falling back
// to read64 for a row that straddles a page end. It must agree, result
// and diagnostic byte for byte, with the word-at-a-time oracle it
// replaced: on clean and recovered images, on one targeted mutation
// per diagnostic, on an image with a never-written stock page, and on
// tables moved 8 bytes off their 64-byte alignment.
// ------------------------------------------------------------------

namespace
{

bool
referenceFail(std::string *why, const char *fmt, ...)
{
    if (why) {
        char buf[256];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        *why = buf;
    }
    return false;
}

/** The word-wise oracle the page walk replaced: a read64 per word. */
bool
referenceTpccCheck(const mem::BackingStore &nvram,
                   const TpccLayout &lay, std::string *why)
{
    const std::uint64_t nstock = lay.warehouses * lay.items;
    std::vector<std::uint64_t> wantCnt(nstock, 0);
    std::vector<std::uint64_t> wantQty(nstock, 0);
    std::vector<std::uint64_t> wantRemote(nstock, 0);

    std::uint64_t allDistrictYtd = 0;

    for (std::uint64_t w = 0; w < lay.warehouses; ++w) {
        std::uint64_t districtYtd = 0;
        for (std::uint64_t d = 0; d < lay.districts; ++d) {
            Addr dist = lay.districtAddr(w, d);
            std::uint64_t next = nvram.read64(dist + 0);
            districtYtd += nvram.read64(dist + 8);
            if (next > lay.maxOrders)
                return referenceFail(
                    why,
                    "district (%" PRIu64 ",%" PRIu64
                    "): next_o_id %" PRIu64 " beyond capacity",
                    w, d, next);

            for (std::uint64_t o = 0; o < next; ++o) {
                Addr order = lay.orderAddr(w, d, o);
                std::uint64_t stamp = nvram.read64(order + 0);
                if (stamp != o + 1)
                    return referenceFail(
                        why,
                        "order (%" PRIu64 ",%" PRIu64 ",%" PRIu64
                        "): stamp %" PRIu64 " != %" PRIu64
                        " (lost or torn order)",
                        w, d, o, stamp, o + 1);
                std::uint64_t cid = nvram.read64(order + 8);
                std::uint64_t nlines = nvram.read64(order + 16);
                std::uint64_t total = nvram.read64(order + 24);
                if (cid >= lay.customers)
                    return referenceFail(
                        why,
                        "order (%" PRIu64 ",%" PRIu64 ",%" PRIu64
                        "): customer %" PRIu64 " out of range",
                        w, d, o, cid);
                if (nlines < TpccLayout::kMinLines ||
                    nlines > TpccLayout::kMaxLines)
                    return referenceFail(
                        why,
                        "order (%" PRIu64 ",%" PRIu64 ",%" PRIu64
                        "): line count %" PRIu64,
                        w, d, o, nlines);
                std::uint64_t sum = 0;
                for (std::uint64_t l = 0; l < nlines; ++l) {
                    Addr line = order + TpccLayout::kOrderHeaderBytes +
                                l * TpccLayout::kOrderLineBytes;
                    std::uint64_t w0 = nvram.read64(line + 0);
                    std::uint64_t w1 = nvram.read64(line + 8);
                    std::uint64_t item = w0 & 0xffffffffu;
                    std::uint64_t supply = w0 >> 32;
                    std::uint64_t qty = w1 & 0xffffffffu;
                    std::uint64_t amount = w1 >> 32;
                    if (item >= lay.items || supply >= lay.warehouses)
                        return referenceFail(
                            why,
                            "order (%" PRIu64 ",%" PRIu64 ",%" PRIu64
                            ") line %" PRIu64 ": item %" PRIu64
                            " / supplier %" PRIu64 " out of range",
                            w, d, o, l, item, supply);
                    if (qty < 1 || qty > 10)
                        return referenceFail(
                            why,
                            "order (%" PRIu64 ",%" PRIu64 ",%" PRIu64
                            ") line %" PRIu64 ": quantity %" PRIu64,
                            w, d, o, l, qty);
                    if (amount != qty * TpccLayout::itemPrice(item))
                        return referenceFail(
                            why,
                            "order (%" PRIu64 ",%" PRIu64 ",%" PRIu64
                            ") line %" PRIu64 ": amount %" PRIu64
                            " != qty * price",
                            w, d, o, l, amount);
                    sum += amount;
                    std::uint64_t s = supply * lay.items + item;
                    ++wantCnt[s];
                    wantQty[s] += qty;
                    if (supply != w)
                        ++wantRemote[s];
                }
                if (sum != total)
                    return referenceFail(
                        why,
                        "order (%" PRIu64 ",%" PRIu64 ",%" PRIu64
                        "): line sum %" PRIu64 " != total %" PRIu64,
                        w, d, o, sum, total);
            }
            if (next < lay.maxOrders &&
                nvram.read64(lay.orderAddr(w, d, next)) != 0)
                return referenceFail(why,
                                     "district (%" PRIu64 ",%" PRIu64
                                     "): phantom order at %" PRIu64,
                                     w, d, next);
        }
        std::uint64_t wytd = nvram.read64(lay.warehouseAddr(w));
        if (wytd != districtYtd)
            return referenceFail(why,
                                 "warehouse %" PRIu64 ": w_ytd %" PRIu64
                                 " != sum of district ytd %" PRIu64,
                                 w, wytd, districtYtd);
        allDistrictYtd += districtYtd;
    }

    std::uint64_t allCustomerYtd = 0;
    for (std::uint64_t w = 0; w < lay.warehouses; ++w)
        for (std::uint64_t d = 0; d < lay.districts; ++d)
            for (std::uint64_t c = 0; c < lay.customers; ++c) {
                Addr cust = lay.customerAddr(w, d, c);
                std::uint64_t bal = nvram.read64(cust + 0);
                std::uint64_t ytd = nvram.read64(cust + 8);
                std::uint64_t cnt = nvram.read64(cust + 16);
                if (bal + ytd != 0)
                    return referenceFail(
                        why,
                        "customer (%" PRIu64 ",%" PRIu64 ",%" PRIu64
                        "): balance %" PRIu64 " + ytd_payment %" PRIu64
                        " != 0",
                        w, d, c, bal, ytd);
                if (cnt > ytd || (cnt == 0) != (ytd == 0))
                    return referenceFail(
                        why,
                        "customer (%" PRIu64 ",%" PRIu64 ",%" PRIu64
                        "): payment_cnt %" PRIu64
                        " inconsistent with ytd %" PRIu64,
                        w, d, c, cnt, ytd);
                allCustomerYtd += ytd;
            }
    if (allDistrictYtd != allCustomerYtd)
        return referenceFail(why,
                             "global: sum d_ytd %" PRIu64
                             " != sum c_ytd_payment %" PRIu64,
                             allDistrictYtd, allCustomerYtd);

    for (std::uint64_t w = 0; w < lay.warehouses; ++w)
        for (std::uint64_t i = 0; i < lay.items; ++i) {
            Addr stock = lay.stockAddr(w, i);
            std::uint64_t qty = nvram.read64(stock + 0);
            std::uint64_t ytd = nvram.read64(stock + 8);
            std::uint64_t cnt = nvram.read64(stock + 16);
            std::uint64_t rem = nvram.read64(stock + 24);
            std::uint64_t s = w * lay.items + i;
            if (cnt != wantCnt[s] || ytd != wantQty[s] ||
                rem != wantRemote[s])
                return referenceFail(
                    why,
                    "stock (%" PRIu64 ",%" PRIu64
                    "): cnt/ytd/remote %" PRIu64 "/%" PRIu64
                    "/%" PRIu64 " != recomputed %" PRIu64 "/%" PRIu64
                    "/%" PRIu64,
                    w, i, cnt, ytd, rem, wantCnt[s], wantQty[s],
                    wantRemote[s]);
            if (cnt == 0) {
                if (qty != TpccLayout::kInitQuantity || ytd != 0)
                    return referenceFail(why,
                                         "stock (%" PRIu64 ",%" PRIu64
                                         "): untouched row mutated",
                                         w, i);
                continue;
            }
            if (qty < 10 || qty > 100)
                return referenceFail(why,
                                     "stock (%" PRIu64 ",%" PRIu64
                                     "): quantity %" PRIu64
                                     " out of range",
                                     w, i, qty);
            if ((qty + ytd) % 91 != TpccLayout::kInitQuantity % 91)
                return referenceFail(
                    why,
                    "stock (%" PRIu64 ",%" PRIu64 "): quantity %" PRIu64
                    " violates replenishment rule (ytd %" PRIu64 ")",
                    w, i, qty, ytd);
        }

    return true;
}

/**
 * Require the page walk and the reference to agree on @p image: the
 * same verdict and a byte-identical diagnostic. Returns the
 * diagnostic ("" if the image passed).
 */
std::string
expectAgree(const mem::BackingStore &image, const TpccLayout &lay,
            const std::string &what)
{
    std::string why, refWhy;
    bool ok = checkTpccConsistency(image, lay, &why);
    EXPECT_EQ(ok, referenceTpccCheck(image, lay, &refWhy)) << what;
    EXPECT_EQ(why, refWhy) << what;
    return why;
}

WorkloadParams
tpccCellParams(std::uint64_t warehouses)
{
    WorkloadParams params;
    params.threads = 4;
    params.txPerThread = 120;
    params.footprint = 64;
    params.warehouses = warehouses;
    params.seed = 5;
    return params;
}

/** A small contended oltp-tpcc cell under fwb. */
struct TpccCell : OltpCell<TpccEngine>
{
    TpccCell(std::uint64_t warehouses, CcMode cc)
        : OltpCell(tpccCellParams(warehouses), cc, PersistMode::Fwb)
    {
    }
};

constexpr Addr kNoPage = ~Addr(0);

/**
 * Copy @p lay's five tables from @p src into a fresh store of the same
 * range, moved by @p shift bytes, and return the layout of the copy.
 * The 4 KB page of the copy at @p hole is never written, so it reads
 * as zeros.
 */
TpccLayout
copyTables(const mem::BackingStore &src, const TpccLayout &lay,
           std::int64_t shift, Addr hole, mem::BackingStore &dst)
{
    constexpr std::uint64_t kPage = 4096;
    TpccLayout moved = lay;
    auto copy = [&](Addr from, std::uint64_t len, Addr &base) {
        base = from + shift;
        std::vector<std::uint8_t> bytes(len);
        src.read(from, len, bytes.data());
        for (std::uint64_t off = 0; off < len;) {
            Addr at = base + off;
            std::uint64_t inPage = (at - dst.base()) % kPage;
            std::uint64_t n = std::min(len - off, kPage - inPage);
            if (at - inPage != hole)
                dst.write(at, n, bytes.data() + off);
            off += n;
        }
    };
    const std::uint64_t districtRows = lay.warehouses * lay.districts;
    copy(lay.warehouseBase, lay.warehouses * TpccLayout::kRowBytes,
         moved.warehouseBase);
    copy(lay.districtBase, districtRows * TpccLayout::kRowBytes,
         moved.districtBase);
    copy(lay.customerBase,
         districtRows * lay.customers * TpccLayout::kRowBytes,
         moved.customerBase);
    copy(lay.stockBase,
         lay.warehouses * lay.items * TpccLayout::kRowBytes,
         moved.stockBase);
    copy(lay.orderBase,
         districtRows * lay.maxOrders * TpccLayout::kOrderBytes,
         moved.orderBase);
    return moved;
}

} // namespace

TEST(TpccVerify, PageWalkAgreesWithPerWordReference)
{
    // Final images: 2 warehouses under 2PL, 4 under TL2.
    for (auto [warehouses, cc] :
         {std::pair{2u, CcMode::TwoPhase}, std::pair{4u, CcMode::Tl2}}) {
        TpccCell cell(warehouses, cc);
        mem::BackingStore image = cell.finalImage();
        EXPECT_EQ(expectAgree(image, cell.eng.layout(), "final"), "");
    }

    // Recovered crash images. The cell ends near tick 1.83 M, so
    // every crash lands mid-run.
    for (Tick at : {Tick(60000), Tick(600000), Tick(1200000)}) {
        TpccCell cell(2, CcMode::TwoPhase);
        mem::BackingStore image = cell.recoveredImage(at);
        const TpccLayout &lay = cell.eng.layout();
        std::string where = "@" + std::to_string(at);
        EXPECT_EQ(expectAgree(image, lay, where), "");

        // And they agree on a recovered image with a torn stock row.
        Addr stock = lay.stockAddr(1, lay.items - 1);
        image.write64(stock + 8, image.read64(stock + 8) + 1);
        EXPECT_NE(expectAgree(image, lay, where + " torn"), "");
    }
}

TEST(TpccVerify, EveryDiagnosticMatchesTheReference)
{
    TpccCell cell(2, CcMode::TwoPhase);
    const mem::BackingStore clean = cell.finalImage();
    const TpccLayout &lay = cell.eng.layout();
    ASSERT_EQ(expectAgree(clean, lay, "clean"), "");

    // The rows the mutations target: a district of warehouse 0 with
    // orders, its first order and line, a customer that has paid, and
    // a stock row some order line touched and one none did.
    std::uint64_t d = 0;
    while (d < lay.districts && clean.read64(lay.districtAddr(0, d)) == 0)
        ++d;
    ASSERT_LT(d, lay.districts);
    const Addr dist = lay.districtAddr(0, d);
    const std::uint64_t next = clean.read64(dist);
    ASSERT_LT(next, lay.maxOrders);
    const Addr order = lay.orderAddr(0, d, 0);
    const Addr line = order + TpccLayout::kOrderHeaderBytes;

    Addr cust = lay.customerAddr(0, 0, 0);
    while (clean.read64(cust + 8) == 0)
        cust += TpccLayout::kRowBytes;
    ASSERT_LT(cust, lay.customerAddr(lay.warehouses, 0, 0));
    Addr touched = lay.stockAddr(0, 0);
    while (clean.read64(touched + 16) == 0)
        touched += TpccLayout::kRowBytes;
    Addr untouched = lay.stockAddr(0, 0);
    while (clean.read64(untouched + 16) != 0)
        untouched += TpccLayout::kRowBytes;
    ASSERT_LT(std::max(touched, untouched),
              lay.stockAddr(lay.warehouses, 0));
    const std::uint64_t qty = clean.read64(touched);

    // Add @p delta to the word at @p a.
    auto bump = [](mem::BackingStore &img, Addr a, std::uint64_t delta) {
        img.write64(a, img.read64(a) + delta);
    };
    struct Mutation
    {
        const char *expect; ///< a substring only its diagnostic has
        std::function<void(mem::BackingStore &)> apply;
    };
    const std::vector<Mutation> mutations = {
        {"beyond capacity",
         [&](auto &img) { img.write64(dist, lay.maxOrders + 1); }},
        {"(lost or torn order)",
         [&](auto &img) { img.write64(order, 0); }},
        {": customer ",
         [&](auto &img) { img.write64(order + 8, lay.customers); }},
        {": line count ",
         [&](auto &img) {
             img.write64(order + 16, TpccLayout::kMaxLines + 1);
         }},
        {" / supplier ",
         [&](auto &img) {
             img.write64(line, (img.read64(line) >> 32 << 32) |
                                   lay.items);
         }},
        {"line 0: quantity ",
         [&](auto &img) {
             img.write64(line + 8, img.read64(line + 8) >> 32 << 32);
         }},
        {" != qty * price",
         [&](auto &img) { bump(img, line + 8, 1ULL << 32); }},
        {": line sum ", [&](auto &img) { bump(img, order + 24, 1); }},
        {": phantom order at ",
         [&](auto &img) {
             img.write64(lay.orderAddr(0, d, next), next + 1);
         }},
        {": w_ytd ",
         [&](auto &img) { bump(img, lay.warehouseAddr(0), 1); }},
        {" + ytd_payment ", [&](auto &img) { bump(img, cust, 1); }},
        {": payment_cnt ",
         [&](auto &img) {
             img.write64(cust + 16, img.read64(cust + 8) + 1);
         }},
        {"global: sum d_ytd ",
         [&](auto &img) {
             // Balance and ytd move together: the row stays
             // consistent, the global sums do not.
             bump(img, cust, ~std::uint64_t(0));
             bump(img, cust + 8, 1);
         }},
        {": cnt/ytd/remote ",
         [&](auto &img) { bump(img, touched + 16, 1); }},
        {": untouched row mutated",
         [&](auto &img) { img.write64(untouched, 99); }},
        {"): quantity 5 out of range",
         [&](auto &img) { img.write64(touched, 5); }},
        {" violates replenishment rule",
         [&](auto &img) {
             img.write64(touched, qty < 100 ? qty + 1 : qty - 1);
         }},
    };
    ASSERT_EQ(mutations.size(), 17u);
    for (const Mutation &m : mutations) {
        mem::BackingStore image = clean;
        m.apply(image);
        std::string why = expectAgree(image, lay, m.expect);
        EXPECT_NE(why.find(m.expect), std::string::npos)
            << m.expect << " not in: " << why;
    }
}

TEST(TpccVerify, AbsentStockPageReadsAsZeros)
{
    TpccCell cell(2, CcMode::TwoPhase);
    const mem::BackingStore clean = cell.finalImage();
    const TpccLayout &lay = cell.eng.layout();

    // Leave out the stock page holding the middle row of warehouse 1.
    Addr mid = lay.stockAddr(1, lay.items / 2);
    Addr hole = mid - (mid - clean.base()) % 4096;
    mem::BackingStore image(clean.base(), clean.size());
    TpccLayout copy = copyTables(clean, lay, 0, hole, image);
    std::uint64_t avail = 0;
    ASSERT_EQ(image.pageAt(hole, &avail), nullptr);

    // The first row of the hole fails, whether or not an order line
    // touched it: its counts and its quantity read as zero.
    std::string why = expectAgree(image, copy, "absent page");
    std::uint64_t first = (hole - lay.stockBase) / TpccLayout::kRowBytes;
    EXPECT_EQ(why.rfind("stock (1," +
                            std::to_string(first % lay.items) + "): ",
                        0),
              0u)
        << why;
}

TEST(TpccVerify, RowsStraddlingPagesFallBackToWordReads)
{
    TpccCell cell(4, CcMode::Tl2);
    const mem::BackingStore clean = cell.finalImage();

    // Every table 8 bytes below its 64-byte boundary: one stock or
    // customer row in 64 and some order lines cross a page end.
    mem::BackingStore image(clean.base(), clean.size());
    const TpccLayout lay =
        copyTables(clean, cell.eng.layout(), -8, kNoPage, image);
    ASSERT_EQ(lay.stockBase % 64, 56u);
    EXPECT_EQ(expectAgree(image, lay, "shifted"), "");

    // A count word on the far side of a page end is still checked.
    std::uint64_t i = 0;
    while ((lay.stockAddr(0, i) - image.base()) % 4096 <= 4096 - 32)
        ++i;
    ASSERT_LT(i, lay.items);
    Addr cnt = lay.stockAddr(0, i) + 16;
    ASSERT_EQ((cnt - image.base()) % 4096, 8u);
    image.write64(cnt, image.read64(cnt) + 1);
    EXPECT_EQ(expectAgree(image, lay, "shifted, torn").rfind(
                  "stock (0," + std::to_string(i) + "): cnt/ytd/remote",
                  0),
              0u);
}

// ------------------------------------------------------------------
// No-steal discipline: under redo-only logging a conflict-doomed
// transaction aborts with an empty write-set — tx_abort must be legal
// there (it used to assert), and contended TL2 runs exercise it.
// ------------------------------------------------------------------

TEST(NoSteal, RedoOnlyConflictAbortsAreLegalAndRecoverable)
{
    RunSpec spec = oltpSpec("oltp-tpcc", PersistMode::RedoClwb,
                            CcMode::Tl2);
    spec.params.threads = 4;
    spec.params.warehouses = 1; // every thread on one warehouse
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    // The whole point of the cell: conflicts happened and were
    // resolved by abort-retry without undo values.
    EXPECT_GT(outcome.stats.abortedTx, 0u);
}

// ------------------------------------------------------------------
// Determinism: the deterministic counters block is a pure function of
// the cell spec — identical across repeats and across host --jobs.
// ------------------------------------------------------------------

TEST(OltpBench, CountersIdenticalAcrossRepeatsAndJobs)
{
    OltpMatrixConfig cfg;
    cfg.threads = 2;
    cfg.txPerThread = 30;
    cfg.customers = 32;
    cfg.keys = 2048;
    // Two repeats: runOltpCell itself fatals on counter drift.
    cfg.minRepeats = 2;

    std::vector<OltpCellSpec> cells = {
        {"oltp-tpcc", PersistMode::Fwb, CcMode::TwoPhase},
        {"oltp-ycsb", PersistMode::RedoClwb, CcMode::Tl2},
    };

    cfg.jobs = 1;
    auto serial = runOltpMatrix(cells, cfg);
    cfg.jobs = 4;
    auto parallel = runOltpMatrix(cells, cfg);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i].countersEqual(parallel[i]))
            << cells[i].engine << " counters depend on --jobs";
    EXPECT_GT(serial[0].stats.committedTx, 0u);
    EXPECT_GT(serial[0].occSamples, 0u);
}

// A sharded log has one log buffer per shard; the commit-sampled log
// occupancy sums all of them, not only shard 0's (which reads 458 and
// 10 on this cell).
TEST(OltpBench, LogOccupancySumsEveryShardBuffer)
{
    OltpMatrixConfig cfg;
    cfg.threads = 4;
    cfg.txPerThread = 30;
    cfg.customers = 32;
    cfg.logShards = 4;
    OltpCellResult r = runOltpCell(
        {"oltp-tpcc", PersistMode::Fwb, CcMode::TwoPhase}, cfg);
    EXPECT_EQ(r.occSamples, 120u);
    EXPECT_EQ(r.logOccSum, 2139u);
    EXPECT_EQ(r.logOccMax, 41u);
}

// ------------------------------------------------------------------
// Contended multi-shard crash sweep: every sampled crash point of a
// 4-thread, 2-warehouse TPC-C cell over a 4-sharded log must recover
// and satisfy the invariant checkers I1–I8 plus the TPC-C oracle.
// ------------------------------------------------------------------

TEST(OltpCrashSweep, ContendedShardedTpccSweepPasses)
{
    crashlab::SweepConfig cfg;
    cfg.run = oltpSpec("oltp-tpcc", PersistMode::Fwb, CcMode::TwoPhase);
    cfg.run.params.txPerThread = 60;
    cfg.run.sys.persist.logShards = 4;
    cfg.jobs = 2;
    cfg.maxPoints = 12;
    auto res = crashlab::runCrashSweep(cfg);
    EXPECT_TRUE(res.passed()) << res.minimizedDetail;
    EXPECT_GT(res.pointsTested, 0u);
    EXPECT_TRUE(res.refVerified) << res.refVerifyMessage;
}

// ------------------------------------------------------------------
// Latency histogram: exact below one octave, bounded relative error
// above, quantiles and merge as documented.
// ------------------------------------------------------------------

TEST(LatencyHistogram, EmptyReportsZeros)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0u);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p999(), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact)
{
    LatencyHistogram h;
    for (std::uint64_t v : {1, 2, 3})
        h.record(v);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 3u);
    EXPECT_EQ(h.mean(), 2u);
    EXPECT_EQ(h.p50(), 2u);
    EXPECT_EQ(h.quantile(1.0), 3u);
}

TEST(LatencyHistogram, QuantileErrorIsBounded)
{
    // Bucket upper bounds are within 1/8 (kSub) relative error of any
    // member value, and quantiles never exceed the recorded max.
    LatencyHistogram h;
    for (std::uint64_t v = 1000; v < 2000; v += 10)
        h.record(v);
    std::uint64_t p50 = h.p50();
    EXPECT_GE(p50, 1400u);
    EXPECT_LE(p50, 1690u); // 1500 * 1.125, and clamped to max
    EXPECT_LE(h.quantile(1.0), h.max());
    EXPECT_GE(h.quantile(1.0), 1990u);
}

TEST(LatencyHistogram, MergeAccumulates)
{
    LatencyHistogram a, b;
    a.record(5);
    a.record(100);
    b.record(70000);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.min(), 5u);
    EXPECT_EQ(a.max(), 70000u);
    EXPECT_EQ(a.sum(), 70105u);
    EXPECT_EQ(a.quantile(1.0), 70000u);
}

// ------------------------------------------------------------------
// YCSB at a production-scale keyspace: a Zipf-skewed run over 10^6
// keys sets up in O(touched pages) (no prewrites) and verifies (no
// torn updates: every payload word equals the record version).
// ------------------------------------------------------------------

TEST(YcsbScale, MillionKeyZipfRunVerifies)
{
    RunSpec spec = oltpSpec("oltp-ycsb", PersistMode::Fwb,
                            CcMode::Tl2);
    spec.params.footprint = 1000000;
    spec.params.zipfTheta = 0.99;
    spec.params.txPerThread = 150;
    auto outcome = runWorkload(spec);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    // YCSB has no user aborts: every transaction eventually commits.
    EXPECT_EQ(outcome.stats.committedTx,
              4u * spec.params.txPerThread);
}

// ------------------------------------------------------------------
// Log-full reclaim wait: an append that reclaims the oldest slot
// waits for the forced write-back of the line that slot guards.
// log.reclaim_wait_cycles counts that wait and RunStats carries it.
// ------------------------------------------------------------------

namespace
{

/** The 8-core, 4-warehouse TPC-C fwb/2PL cell of snfsim, seed 11. */
RunSpec
reclaimCell(std::uint64_t logBytes)
{
    RunSpec spec;
    spec.workload = "oltp-tpcc";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 8;
    spec.params.txPerThread = 250;
    spec.params.warehouses = 4;
    spec.params.seed = 11;
    spec.sys = SystemConfig::scaled(spec.params.threads);
    spec.sys.persist = PersistConfig{};
    spec.sys.persist.ccMode = CcMode::TwoPhase;
    spec.sys.map.logSize = logBytes;
    return spec;
}

/** Counter @p name from a System::dumpStats text. */
std::uint64_t
dumpedCounter(const std::string &dump, const std::string &name)
{
    std::string key = "\n" + name + " = ";
    std::size_t at = ("\n" + dump).find(key);
    EXPECT_NE(at, std::string::npos) << name;
    if (at == std::string::npos)
        return 0;
    return std::stoull(dump.substr(at + key.size() - 1));
}

} // namespace

TEST(LogFullReclaim, WaitForForcedWritebacksIsCounted)
{
    // A 64 KB log wraps 27 times; its 1 644 forced write-backs keep
    // reclaims waiting 9.5 M cycles in all. (The 256 KB scaled log
    // wraps six times and forces nothing: FWB has written every
    // reclaimed line back by then.)
    std::ostringstream dump;
    auto outcome = runWorkload(reclaimCell(64 * 1024), &dump);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_EQ(dumpedCounter(dump.str(), "log.wraps"), 27u);
    EXPECT_EQ(dumpedCounter(dump.str(), "log.forced_writebacks"), 1644u);
    EXPECT_EQ(dumpedCounter(dump.str(), "log.reclaim_wait_cycles"),
              9542721u);
    // RunStats carries the dumped wait and forced write-backs.
    EXPECT_EQ(outcome.stats.reclaimWaitCycles, 9542721u);
    EXPECT_EQ(outcome.stats.forcedWritebacks, 1644u);
    // Every reclaim met a finished transaction's record.
    EXPECT_EQ(outcome.stats.overwriteHazards, 0u);
}

TEST(LogFullReclaim, LogThatNeverWrapsNeverWaits)
{
    std::ostringstream dump;
    auto outcome = runWorkload(reclaimCell(4 * 1024 * 1024), &dump);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_EQ(dumpedCounter(dump.str(), "log.wraps"), 0u);
    EXPECT_EQ(dumpedCounter(dump.str(), "log.reclaims"), 0u);
    EXPECT_EQ(dumpedCounter(dump.str(), "log.reclaim_wait_cycles"), 0u);
}

TEST(LogFullReclaim, LogSmallerThanTheLiveWriteSetsLosesRecords)
{
    // Pins a known defect (ROADMAP, "A log smaller than the live write
    // sets"). A reclaim that reaches a live record of an active
    // transaction overwrites it as a counted hazard, so that
    // transaction can no longer roll back. On a 48 KB log the cell
    // meets 50 such reclaims, one of their transactions later rolls
    // back without the undo values it lost, and the final image fails
    // the TPC-C oracle (a stock row counts an order line that no order
    // holds); a 32 KB log meets 211 and happens to verify; 64 KB meets
    // none (WaitForForcedWritebacksIsCounted). A fix turns the 48 KB
    // verdict to a pass and the counts to 0.
    struct Cell
    {
        std::uint64_t logBytes;
        std::uint64_t hazards;
        bool verified;
    };
    for (const Cell &c :
         {Cell{48 * 1024, 50, false}, Cell{32 * 1024, 211, true}}) {
        SCOPED_TRACE(c.logBytes);
        auto outcome = runWorkload(reclaimCell(c.logBytes));
        EXPECT_EQ(outcome.stats.overwriteHazards, c.hazards);
        EXPECT_EQ(outcome.verified, c.verified) << outcome.verifyMessage;
    }
}

TEST(LogFullReclaim, FwbLeadsHwlOnAWrappingLog)
{
    // A 2 MB log that 8 x 2 000 transactions wrap six times. FWB
    // writes lines back ahead of their slots' reclaim, so fwb must
    // beat hwl, which writes its lines back with clwb at commit.
    auto throughput = [](PersistMode mode) {
        RunSpec spec = reclaimCell(2 * 1024 * 1024);
        spec.mode = mode;
        spec.params.txPerThread = 2000;
        spec.params.footprint = 256;
        std::ostringstream dump;
        auto outcome = runWorkload(spec, &dump);
        EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
        EXPECT_EQ(dumpedCounter(dump.str(), "log.wraps"), 6u);
        return outcome.stats.txPerMcycle;
    };
    const double fwb = throughput(PersistMode::Fwb);
    const double hwl = throughput(PersistMode::Hwl);
    EXPECT_GT(fwb, hwl);
}

// ------------------------------------------------------------------
// Ops that run in place: a compute, and the CC probe of a line the
// open transaction already locks, run inside the workload coroutine
// instead of parking for the scheduler. sched.ops counts the parked
// ops the scheduler ran.
// ------------------------------------------------------------------

TEST(InPlaceOps, TpccCellParksFewerOps)
{
    // snfsim --workload oltp-tpcc --mode fwb --threads 8 --warehouses 4
    // --footprint 256 --cc 2pl --tx 500 --seed 16. While every op
    // parked, the scheduler ran 444 472 of them, among them 194 812
    // CC probes (152 735 of a line the transaction already held) and
    // 36 733 computes. The simulated run is the same either way.
    RunSpec spec;
    spec.workload = "oltp-tpcc";
    spec.mode = PersistMode::Fwb;
    spec.params.threads = 8;
    spec.params.txPerThread = 500;
    spec.params.warehouses = 4;
    spec.params.footprint = 256;
    spec.params.seed = 16;
    spec.sys = SystemConfig::scaled(spec.params.threads);
    spec.sys.persist.ccMode = CcMode::TwoPhase;
    std::ostringstream dump;
    auto outcome = runWorkload(spec, &dump);
    EXPECT_TRUE(outcome.verified) << outcome.verifyMessage;
    EXPECT_EQ(outcome.endTick, 2193832u);
    EXPECT_EQ(dumpedCounter(dump.str(), "sched.ops"), 255004u);
}
