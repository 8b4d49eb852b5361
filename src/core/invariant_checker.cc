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

namespace
{

/** Tally every marker against @p found, the one dump search. */
template <typename Found>
DumpLeaks
tallyLeaks(const std::vector<SecretMarker> &markers, Found &&found)
{
    DumpLeaks leaks;
    for (const SecretMarker &marker : markers) {
        const bool hit = found(std::span<const std::uint8_t>(marker.bytes));
        if (marker.sensitive) {
            ++leaks.sensitiveProbed;
            if (hit) {
                ++leaks.sensitiveLeaked;
                if (leaks.firstLeakedOwner.empty())
                    leaks.firstLeakedOwner = marker.owner;
            }
        } else if (hit) {
            ++leaks.nonSensitiveLeaks;
        }
    }
    return leaks;
}

} // namespace

DumpLeaks
InvariantChecker::checkDumps(std::span<const std::uint8_t> dram_dump,
                             std::span<const std::uint8_t> iram_dump) const
{
    return tallyLeaks(markers_, [&](std::span<const std::uint8_t> bytes) {
        return containsBytes(dram_dump, bytes) ||
               containsBytes(iram_dump, bytes);
    });
}

DumpLeaks
InvariantChecker::checkDumps(const hw::Soc &soc) const
{
    return tallyLeaks(markers_, [&](std::span<const std::uint8_t> bytes) {
        return soc.dram().contains(bytes) || soc.iram().contains(bytes);
    });
}

CheckOutcome
InvariantChecker::checkIramZeroed(const hw::Soc &soc) const
{
    // Page by page: Zero pages are skipped unread.
    const std::size_t i = soc.iram().firstNonZeroCell();
    if (i == soc.iramSize())
        return CheckOutcome{};
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "iRAM byte 0x%zx non-zero after power event "
                  "(firmware must zero iRAM)",
                  i);
    return CheckOutcome{false, buf};
}

} // namespace sentry::core
