/**
 * @file
 * Memory-forensics helper: searches simulated storage for secrets, the
 * way an attacker greps a memory dump (and the way our invariant tests
 * assert that Sentry never leaks plaintext to DRAM).
 */

#ifndef SENTRY_CORE_DRAM_SCANNER_HH
#define SENTRY_CORE_DRAM_SCANNER_HH

#include <cstdint>
#include <span>

#include "hw/soc.hh"

namespace sentry::core
{

/** Read-only scans over the device's storage arrays. */
class DramScanner
{
  public:
    explicit DramScanner(const hw::Soc &soc) : soc_(soc) {}

    /** @return true if @p needle appears anywhere in DRAM cells. Scans
     * only the pages the device owns (Zero pages are skipped) and
     * never materializes the copy-on-write array. */
    bool dramContains(std::span<const std::uint8_t> needle) const;

    /** @return true if @p needle appears anywhere in iRAM cells. */
    bool iramContains(std::span<const std::uint8_t> needle) const;

    /** Count aligned occurrences of @p pattern in DRAM (Table 2 grep). */
    std::size_t dramPatternCount(std::span<const std::uint8_t> pattern) const;

    /** Count aligned occurrences of @p pattern in iRAM. */
    std::size_t iramPatternCount(std::span<const std::uint8_t> pattern) const;

  private:
    const hw::Soc &soc_;
};

} // namespace sentry::core

#endif // SENTRY_CORE_DRAM_SCANNER_HH
