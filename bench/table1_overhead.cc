/**
 * @file
 * Table I: summary of the major hardware overhead of the design,
 * computed from the active system configuration (registers, the
 * optional log buffer SRAM, and the per-line fwb tag bits).
 */

#include "bench/common.hh"
#include "persist/log_record.hh"

using namespace snf;
using namespace snf::bench;

int
main()
{
    setQuiet(true);
    std::printf("== Table I: hardware overhead summary ==\n\n");

    for (const char *preset : {"paper", "scaled"}) {
        SystemConfig c = std::string(preset) == "paper"
                             ? SystemConfig::paper()
                             : SystemConfig::scaled();
        std::uint64_t l1_lines =
            static_cast<std::uint64_t>(c.numCores) * c.l1.numLines();
        std::uint64_t l2_lines = c.l2.numLines();
        // One log record plus valid/coalescing tags per entry,
        // rounded to a 64-byte SRAM word as in the paper's 964-byte
        // estimate for its configuration.
        std::uint64_t log_buffer_bytes =
            c.persist.logBufferEntries * 64ULL + 4;
        std::uint64_t fwb_bits = l1_lines + l2_lines;

        std::printf("--- %s configuration ---\n", preset);
        std::printf("%-28s %-10s %8s\n", "Mechanism", "Logic",
                    "Size");
        std::printf("%-28s %-10s %7uB\n", "Transaction ID register",
                    "flip-flops", 1);
        std::printf("%-28s %-10s %7uB\n", "Log head pointer register",
                    "flip-flops", 8);
        std::printf("%-28s %-10s %7uB\n", "Log tail pointer register",
                    "flip-flops", 8);
        std::printf("%-28s %-10s %7lluB  (%u entries x 64B)\n",
                    "Log buffer (optional)", "SRAM",
                    static_cast<unsigned long long>(log_buffer_bytes),
                    c.persist.logBufferEntries);
        std::printf("%-28s %-10s %7lluB  (%llu lines x 1 bit)\n",
                    "Fwb tag bit", "SRAM",
                    static_cast<unsigned long long>(fwb_bits / 8),
                    static_cast<unsigned long long>(fwb_bits));
        std::printf("\n");
    }

    std::printf("(paper Table I reports 1B + 8B + 8B + 964B + 768B "
                "for its cache configuration;\n"
                " the fwb-bit figure depends directly on the total "
                "line count of all caches.)\n");
    return 0;
}
