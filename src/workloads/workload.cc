#include "workloads/workload.hh"

#include "sim/logging.hh"
#include "workloads/btree.hh"
#include "workloads/hash.hh"
#include "workloads/prog.hh"
#include "workloads/rbtree.hh"
#include "workloads/sps.hh"
#include "workloads/ssca2.hh"
#include "workloads/whisper_ctree.hh"
#include "workloads/whisper_echo.hh"
#include "workloads/whisper_hashmap.hh"
#include "workloads/whisper_vacation.hh"

#include "oltp/tpcc.hh"
#include "oltp/ycsb.hh"

namespace snf::workloads
{

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sps")
        return std::make_unique<Sps>();
    if (name == "hash")
        return std::make_unique<HashMicro>();
    if (name == "rbtree")
        return std::make_unique<RbTree>();
    if (name == "btree")
        return std::make_unique<BTree>();
    if (name == "ssca2")
        return std::make_unique<Ssca2>();
    if (name == "prog")
        return std::make_unique<ProgWorkload>();
    if (name == "ctree")
        return std::make_unique<WhisperCtree>();
    if (name == "hashmap")
        return std::make_unique<WhisperHashmap>();
    if (name == "echo")
        return std::make_unique<WhisperEcho>();
    if (name == "vacation")
        return std::make_unique<WhisperVacation>();
    if (name == "oltp-tpcc")
        return std::make_unique<oltp::TpccEngine>();
    if (name == "oltp-ycsb")
        return std::make_unique<oltp::YcsbEngine>();
    fatal("unknown workload '%s'", name.c_str());
}

const std::vector<std::string> &
microbenchNames()
{
    static const std::vector<std::string> names = {
        "hash", "rbtree", "sps", "btree", "ssca2",
    };
    return names;
}

const std::vector<std::string> &
whisperNames()
{
    static const std::vector<std::string> names = {
        "ctree", "hashmap", "echo", "vacation",
    };
    return names;
}

const std::vector<std::string> &
oltpNames()
{
    static const std::vector<std::string> names = {
        "oltp-tpcc", "oltp-ycsb",
    };
    return names;
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> all = microbenchNames();
    const auto &w = whisperNames();
    all.insert(all.end(), w.begin(), w.end());
    const auto &o = oltpNames();
    all.insert(all.end(), o.begin(), o.end());
    // conformlab's program-driven adapter: a random transaction
    // program generated from the run seed.
    all.push_back("prog");
    return all;
}

} // namespace snf::workloads
