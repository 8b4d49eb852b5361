#include "core/dram_scanner.hh"

#include "common/bytes.hh"

namespace sentry::core
{

bool
DramScanner::dramContains(std::span<const std::uint8_t> needle) const
{
    return soc_.dram().contains(needle);
}

bool
DramScanner::iramContains(std::span<const std::uint8_t> needle) const
{
    return soc_.iram().contains(needle);
}

std::size_t
DramScanner::dramPatternCount(std::span<const std::uint8_t> pattern) const
{
    return countPattern(soc_.dramRaw(), pattern);
}

std::size_t
DramScanner::iramPatternCount(std::span<const std::uint8_t> pattern) const
{
    return countPattern(soc_.iramRaw(), pattern);
}

} // namespace sentry::core
