#include "core/security_audit.hh"

#include <bit>

#include "common/bytes.hh"
#include "core/dram_scanner.hh"

namespace sentry::core
{

bool
AuditReport::allPassed() const
{
    for (const auto &finding : findings) {
        if (!finding.passed)
            return false;
    }
    return true;
}

std::string
AuditReport::summary() const
{
    std::string out;
    for (const auto &finding : findings) {
        out += finding.passed ? "[PASS] " : "[FAIL] ";
        out += finding.check;
        if (!finding.detail.empty()) {
            out += " — ";
            out += finding.detail;
        }
        out += "\n";
    }
    return out;
}

bool
SecurityAudit::deviceLocked() const
{
    const os::PowerState state = kernel_.powerState();
    return state == os::PowerState::Locked ||
           state == os::PowerState::Suspended ||
           state == os::PowerState::DeepLock;
}

void
SecurityAudit::checkKeyResidency(AuditReport &report)
{
    if (sentry_.keysDestroyed()) {
        report.findings.push_back(
            {"key-residency", true, "keys scrubbed after deep lock"});
        return;
    }
    const RootKey key = sentry_.keys().volatileKey();
    DramScanner scanner(kernel_.soc());
    const bool inDram = scanner.dramContains({key.data(), key.size()});
    const bool onSoc = scanner.iramContains({key.data(), key.size()});
    report.findings.push_back(
        {"key-residency", onSoc && !inDram,
         inDram   ? "volatile key found in DRAM"
         : !onSoc ? "volatile key missing from on-SoC storage"
                  : ""});
}

void
SecurityAudit::checkPageStates(AuditReport &report)
{
    if (!deviceLocked()) {
        report.findings.push_back(
            {"page-states", true, "device awake: not applicable"});
        return;
    }

    std::size_t violations = 0;
    for (const auto &process : kernel_.processes()) {
        if (!process->sensitive())
            continue;
        for (const os::Vma &vma : process->addressSpace().vmas()) {
            if (vma.share == os::SharePolicy::SharedWithNonSensitive)
                continue;
            for (std::size_t page = 0; page < vma.pages(); ++page) {
                const os::Pte *pte =
                    process->pageTable().find(vma.base +
                                              page * PAGE_SIZE);
                if (pte == nullptr || !pte->present)
                    continue;
                // A page is compliant if it is ciphertext in DRAM or
                // cleartext pinned on the SoC.
                if (!pte->encrypted && !pte->onSoc)
                    ++violations;
            }
        }
    }
    report.findings.push_back(
        {"page-states", violations == 0,
         violations == 0 ? ""
                         : std::to_string(violations) +
                               " decrypted DRAM-resident page(s) while "
                               "locked"});
}

void
SecurityAudit::checkFlushMask(AuditReport &report)
{
    const std::uint32_t lockdown = kernel_.soc().l2().lockdownReg();
    const std::uint32_t mask = kernel_.soc().l2().flushWayMask();
    const bool covered = (lockdown & ~mask) == 0;
    report.findings.push_back(
        {"flush-mask", covered,
         covered ? ""
                 : "locked ways not covered by the flush mask: a kernel "
                   "cache flush would leak them"});
}

void
SecurityAudit::checkMarkers(
    AuditReport &report,
    std::span<const std::span<const std::uint8_t>> plaintext_markers)
{
    if (!deviceLocked() || plaintext_markers.empty()) {
        report.findings.push_back({"plaintext-markers", true,
                                   plaintext_markers.empty()
                                       ? "no markers supplied"
                                       : "device awake: not applicable"});
        return;
    }
    DramScanner scanner(kernel_.soc());
    std::size_t hits = 0;
    for (const auto &marker : plaintext_markers)
        hits += scanner.dramContains(marker) ? 1 : 0;
    report.findings.push_back(
        {"plaintext-markers", hits == 0,
         hits == 0 ? "" : std::to_string(hits) + " marker(s) in DRAM"});
}

void
SecurityAudit::checkFreedPages(AuditReport &report)
{
    const bool clean =
        !deviceLocked() || kernel_.freedPendingBytes() == 0;
    report.findings.push_back(
        {"freed-pages", clean,
         clean ? ""
               : std::to_string(kernel_.freedPendingBytes()) +
                     " unscrubbed freed bytes while locked"});
}

AuditReport
SecurityAudit::run(
    std::span<const std::span<const std::uint8_t>> plaintext_markers)
{
    // Make DRAM reflect reality before scanning: push dirty lines out
    // of the unlocked ways (locked ways are exempt by design).
    kernel_.soc().l2().cleanAllMasked();

    AuditReport report;
    checkKeyResidency(report);
    checkPageStates(report);
    checkFlushMask(report);
    checkMarkers(report, plaintext_markers);
    checkFreedPages(report);
    return report;
}

} // namespace sentry::core
