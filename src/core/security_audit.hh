/**
 * @file
 * Programmatic security audit: the invariants Sentry promises, checked
 * on a live device. Integrators run this in tests/CI after wiring
 * Sentry into their platform; our own test suite and examples use it
 * too.
 *
 * Checks (each returns a finding rather than asserting):
 *   - root keys present on the SoC and absent from DRAM;
 *   - while locked/suspended: no sensitive process has a decrypted,
 *     DRAM-resident page (on-SoC pager residents are fine);
 *   - the PL310 flush-way mask covers every locked way (the section
 *     4.5 OS change is actually in force);
 *   - caller-supplied plaintext markers do not appear in DRAM while
 *     locked;
 *   - freed pages are scrubbed when the device is locked.
 */

#ifndef SENTRY_CORE_SECURITY_AUDIT_HH
#define SENTRY_CORE_SECURITY_AUDIT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sentry.hh"
#include "os/kernel.hh"

namespace sentry::core
{

/** One audit finding. */
struct AuditFinding
{
    std::string check;
    bool passed;
    std::string detail;
};

/** Aggregate result. */
struct AuditReport
{
    std::vector<AuditFinding> findings;

    /** @return true when every check passed. */
    bool allPassed() const;

    /** @return a printable multi-line summary. */
    std::string summary() const;
};

/** The auditor. */
class SecurityAudit
{
  public:
    SecurityAudit(os::Kernel &kernel, Sentry &sentry)
        : kernel_(kernel), sentry_(sentry)
    {}

    /**
     * Run all checks.
     * @param plaintext_markers byte strings that must not be in DRAM
     *        while the device is locked (e.g. known app secrets)
     */
    AuditReport run(std::span<const std::span<const std::uint8_t>>
                        plaintext_markers = {});

  private:
    void checkKeyResidency(AuditReport &report);
    void checkPageStates(AuditReport &report);
    void checkFlushMask(AuditReport &report);
    void checkMarkers(
        AuditReport &report,
        std::span<const std::span<const std::uint8_t>> plaintext_markers);
    void checkFreedPages(AuditReport &report);

    bool deviceLocked() const;

    os::Kernel &kernel_;
    Sentry &sentry_;
};

} // namespace sentry::core

#endif // SENTRY_CORE_SECURITY_AUDIT_HH
