#include "core/invariant_checker.hh"

#include <cstdio>

#include "common/bytes.hh"
#include "hw/soc.hh"

namespace sentry::core
{

void
InvariantChecker::addMarker(SecretMarker marker)
{
    markers_.push_back(std::move(marker));
}

CheckOutcome
InvariantChecker::checkLive()
{
    std::vector<std::span<const std::uint8_t>> plaintextMarkers;
    for (const SecretMarker &marker : markers_) {
        if (marker.sensitive)
            plaintextMarkers.emplace_back(marker.bytes);
    }
    SecurityAudit audit(kernel_, sentry_);
    const AuditReport report = audit.run(plaintextMarkers);
    CheckOutcome outcome;
    if (!report.allPassed()) {
        outcome.ok = false;
        for (const AuditFinding &finding : report.findings) {
            if (!finding.passed) {
                outcome.detail = finding.check + " — " + finding.detail;
                break;
            }
        }
    }
    return outcome;
}

DumpLeaks
InvariantChecker::checkDumps(std::span<const std::uint8_t> dram_dump,
                             std::span<const std::uint8_t> iram_dump) const
{
    DumpLeaks leaks;
    for (const SecretMarker &marker : markers_) {
        const bool found = containsBytes(dram_dump, marker.bytes) ||
                           containsBytes(iram_dump, marker.bytes);
        if (marker.sensitive) {
            ++leaks.sensitiveProbed;
            if (found) {
                ++leaks.sensitiveLeaked;
                if (leaks.firstLeakedOwner.empty())
                    leaks.firstLeakedOwner = marker.owner;
            }
        } else if (found) {
            ++leaks.nonSensitiveLeaks;
        }
    }
    return leaks;
}

CheckOutcome
InvariantChecker::checkIramZeroed(const hw::Soc &soc) const
{
    const auto iram = soc.iramRaw();
    if (allZero(iram))
        return CheckOutcome{};
    // Failure path only: locate the first offending byte for the report.
    std::size_t i = 0;
    while (i < iram.size() && iram[i] == 0)
        ++i;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "iRAM byte 0x%zx non-zero after power event "
                  "(firmware must zero iRAM)",
                  i);
    return CheckOutcome{false, buf};
}

} // namespace sentry::core
