/**
 * @file
 * WHISPER "tpcc" workload equivalent: TPC-C New-Order style
 * transactions against persistent district and order tables. Each
 * transaction reads its district, allocates the next order id,
 * writes an order record with 5-15 order lines, and updates the
 * district's year-to-date totals — a large-write-set, write-intensive
 * transaction profile.
 *
 * Invariants verified: per district, the next-order-id counter equals
 * the number of fully-written order records; every order record's
 * stored line count matches its stamped lines; ytd equals the sum of
 * order totals.
 */

#ifndef SNF_WORKLOADS_WHISPER_TPCC_HH
#define SNF_WORKLOADS_WHISPER_TPCC_HH

#include "workloads/workload.hh"

namespace snf::workloads
{

/** See file comment. */
class WhisperTpcc : public Workload
{
  public:
    std::string name() const override { return "tpcc"; }

    void setup(System &sys, const WorkloadParams &params) override;

    sim::Co<void> thread(System &sys, Thread &t,
                         const WorkloadParams &params) override;

    bool verify(const mem::BackingStore &nvram,
                std::string *why) const override;

    /** Each thread owns two districts and their orders. */
    bool threadPrivate() const override { return true; }

  private:
    static constexpr std::uint64_t kMaxLines = 15;

    // District: nextOid(8) | ytd(8).
    static constexpr std::uint64_t kDistrictBytes = 16;
    // Order: oidStamp(8) | nlines(8) | total(8) |
    //        lines[15]{item(8), amount(8)}.
    static constexpr std::uint64_t kOrderBytes = 24 + kMaxLines * 16;

    Addr districtAddr(std::uint64_t d) const
    {
        return districts + d * kDistrictBytes;
    }

    Addr orderAddr(std::uint64_t d, std::uint64_t oid) const
    {
        return orders + (d * maxOrdersPerDistrict + oid) * kOrderBytes;
    }

    static constexpr std::uint64_t kItemTableBytes = 1 << 20;

    Addr districts = 0;
    Addr orders = 0;
    Addr itemTable = 0;
    std::uint64_t ndistricts = 0;
    std::uint64_t maxOrdersPerDistrict = 0;
    std::uint32_t nthreads = 1;
};

} // namespace snf::workloads

#endif // SNF_WORKLOADS_WHISPER_TPCC_HH
