#include "attacks/dma_attack.hh"

#include "common/bytes.hh"

namespace sentry::attacks
{

std::vector<std::uint8_t>
DmaAttack::dumpRange(hw::Soc &soc, PhysAddr addr, std::size_t len,
                     hw::DmaStatus *status_out)
{
    std::vector<std::uint8_t> dump(len, 0);
    hw::DmaStatus worst = hw::DmaStatus::Ok;

    // Real DMA engines move data in bounded bursts; 64 KiB descriptors.
    constexpr std::size_t BURST = 64 * KiB;
    for (std::size_t off = 0; off < len; off += BURST) {
        const std::size_t chunk = std::min(BURST, len - off);
        const hw::DmaStatus status =
            soc.dma().readMemory(addr + off, dump.data() + off, chunk);
        if (status != hw::DmaStatus::Ok && worst == hw::DmaStatus::Ok)
            worst = status;
    }
    if (status_out != nullptr)
        *status_out = worst;
    return dump;
}

AttackResult
DmaAttack::run(hw::Soc &soc, std::span<const std::uint8_t> secret,
               const std::string &target)
{
    AttackResult result;
    result.attack = "dma";
    result.target = target;

    const std::vector<std::uint8_t> dramDump =
        dumpRange(soc, DRAM_BASE, soc.dramSize());
    if (containsBytes(dramDump, secret)) {
        result.secretRecovered = true;
        result.notes.push_back("secret found in DRAM via DMA");
    }

    hw::DmaStatus iramStatus = hw::DmaStatus::Ok;
    const std::vector<std::uint8_t> iramDump =
        dumpRange(soc, IRAM_BASE, soc.iramSize(), &iramStatus);
    if (iramStatus == hw::DmaStatus::DeniedByTrustZone) {
        result.notes.push_back("iRAM DMA denied by TrustZone");
    } else if (containsBytes(iramDump, secret)) {
        result.secretRecovered = true;
        result.notes.push_back("secret found in iRAM via DMA");
    }

    return result;
}

} // namespace sentry::attacks
