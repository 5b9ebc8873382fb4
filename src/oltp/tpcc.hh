/**
 * @file
 * Production-scale multi-warehouse TPC-C engine (DESIGN §8): NewOrder
 * + Payment + OrderStatus transactions over warehouse, district,
 * customer, stock and order tables in the persistent heap, with the
 * volatile item catalog in DRAM. Runs under every logging mode and
 * both CC schemes; with redo-only logging (no undo values to roll
 * back with) the engine switches to the no-steal commit discipline
 * (oltp::TxExec).
 *
 * The consistency oracle checkTpccConsistency() is a pure function of
 * the NVRAM image, reusable from tests after a clean run or after
 * crash + recovery. It asserts TPC-C §3.3-style invariants:
 *   - per warehouse, w_ytd equals the sum of its districts' d_ytd;
 *   - per district, orders [0, d_next_o_id) are dense, stamped, with
 *     5..15 lines whose stored amounts are qty * price(item) and sum
 *     to the stored order total; the next slot is unstamped;
 *   - per customer, c_balance = -c_ytd_payment (two's complement),
 *     and c_payment_cnt is consistent with c_ytd_payment;
 *   - globally, the sum of d_ytd equals the sum of c_ytd_payment
 *     (remote payments book ytd at the home warehouse);
 *   - per stock row, s_order_cnt / s_ytd / s_remote_cnt equal the
 *     values recomputed from every committed order line, and
 *     s_quantity obeys the 91-replenishment rule
 *     ((s_quantity + s_ytd) % 91 == 9, 10 <= s_quantity <= 100).
 */

#ifndef SNF_OLTP_TPCC_HH
#define SNF_OLTP_TPCC_HH

#include "oltp/engine.hh"

namespace snf::oltp
{

/** Table geometry + base addresses; filled in by TpccEngine::setup. */
struct TpccLayout
{
    static constexpr std::uint64_t kRowBytes = 64;
    static constexpr std::uint64_t kMinLines = 5;
    static constexpr std::uint64_t kMaxLines = 15;
    static constexpr std::uint64_t kOrderHeaderBytes = 32;
    static constexpr std::uint64_t kOrderLineBytes = 16;
    /** Header + 15 lines, rounded to a line multiple. */
    static constexpr std::uint64_t kOrderBytes = 320;
    static constexpr std::uint64_t kInitQuantity = 100;

    std::uint64_t warehouses = 0;
    /** Districts per warehouse (TPC-C fixes this at 10). */
    std::uint64_t districts = 10;
    /** Customers per district. */
    std::uint64_t customers = 0;
    /** Item catalog size (shared across warehouses). */
    std::uint64_t items = 0;
    /** Order-table capacity per district. */
    std::uint64_t maxOrders = 0;

    Addr warehouseBase = 0;
    Addr districtBase = 0;
    Addr customerBase = 0;
    Addr stockBase = 0;
    Addr orderBase = 0;

    // Row field offsets (all fields are 8-byte words):
    //  warehouse: +0 w_ytd
    //  district:  +0 d_next_o_id, +8 d_ytd
    //  customer:  +0 c_balance (two's complement), +8 c_ytd_payment,
    //             +16 c_payment_cnt
    //  stock:     +0 s_quantity, +8 s_ytd, +16 s_order_cnt,
    //             +24 s_remote_cnt
    //  order:     +0 stamp (= o_id + 1), +8 o_c_id, +16 o_ol_cnt,
    //             +24 o_total; lines at +32 + l*16 packed as
    //             word0 = item | supply_w << 32,
    //             word1 = qty | amount << 32

    Addr warehouseAddr(std::uint64_t w) const
    {
        return warehouseBase + w * kRowBytes;
    }

    Addr districtAddr(std::uint64_t w, std::uint64_t d) const
    {
        return districtBase + (w * districts + d) * kRowBytes;
    }

    Addr customerAddr(std::uint64_t w, std::uint64_t d,
                      std::uint64_t c) const
    {
        return customerBase +
               ((w * districts + d) * customers + c) * kRowBytes;
    }

    Addr stockAddr(std::uint64_t w, std::uint64_t i) const
    {
        return stockBase + (w * items + i) * kRowBytes;
    }

    Addr orderAddr(std::uint64_t w, std::uint64_t d,
                   std::uint64_t o) const
    {
        return orderBase +
               ((w * districts + d) * maxOrders + o) * kOrderBytes;
    }

    /**
     * Deterministic catalog price of item @p i in [1, 9999]: a pure
     * function of the id, so the oracle can recompute stored line
     * amounts without a persistent item table.
     */
    static std::uint64_t itemPrice(std::uint64_t i)
    {
        return 1 + ((i * 2654435761ULL) >> 16) % 9999;
    }
};

/**
 * The reusable consistency oracle (see file comment). Pure function
 * of the image; safe on a recovered post-crash image because every
 * invariant is closed under whole committed transactions.
 */
bool checkTpccConsistency(const mem::BackingStore &nvram,
                          const TpccLayout &lay, std::string *why);

/** See file comment. */
class TpccEngine : public OltpEngine
{
  public:
    std::string name() const override { return "oltp-tpcc"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    /** Without a CC scheme setup() gives every thread its own home
     *  warehouse and no transaction leaves it. */
    bool threadPrivate() const override { return !ccOn; }

    const TpccLayout &layout() const { return lay; }

  private:
    enum TxType : std::size_t
    {
        kNewOrder = 0,
        kPayment = 1,
        kOrderStatus = 2,
    };

    struct OrderLine
    {
        std::uint64_t item = 0;
        std::uint64_t supply = 0;
        std::uint64_t qty = 0;
    };

    /** All randomness for one NewOrder, drawn before the attempt
     *  loop so every retry replays identical parameters. */
    struct NewOrderArg
    {
        std::uint64_t w = 0, d = 0, c = 0;
        std::uint64_t nlines = 0;
        bool userAbort = false;
        OrderLine lines[TpccLayout::kMaxLines];
    };

    struct PaymentArg
    {
        std::uint64_t w = 0, d = 0;
        /** Customer's home (differs from w/d on remote payments). */
        std::uint64_t cw = 0, cd = 0, c = 0;
        std::uint64_t amount = 0;
    };

    struct StatusArg
    {
        std::uint64_t w = 0, d = 0, c = 0;
    };

    sim::Co<void> newOrder(Thread &t, TxExec &x, const NewOrderArg &a);
    sim::Co<void> payment(Thread &t, TxExec &x, const PaymentArg &a);
    sim::Co<void> orderStatus(Thread &t, TxExec &x, const StatusArg &a);

    TpccLayout lay;
    Addr itemTable = 0;
    bool ccOn = false;
};

} // namespace snf::oltp

#endif // SNF_OLTP_TPCC_HH
