/**
 * @file
 * Checked numeric option values for the command-line tools
 * (sentry_fleet, sentry_fuzz).
 */

#ifndef SENTRY_APPS_CLI_ARGS_HH
#define SENTRY_APPS_CLI_ARGS_HH

#include <cerrno>
#include <cstdlib>
#include <optional>

namespace sentry::apps
{

/**
 * Parse an option value as an unsigned number in [@p lo, @p hi].
 * Decimal, 0x-prefixed hex and 0-prefixed octal are accepted (strtoull
 * base 0). @return nullopt for an empty value, a sign, trailing junk,
 * overflow, or a value outside the range.
 */
inline std::optional<unsigned long long>
parseNumberArg(const char *text, unsigned long long lo,
               unsigned long long hi)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (errno != 0 || end == text || *end != '\0' || value < lo ||
        value > hi)
        return std::nullopt;
    return value;
}

} // namespace sentry::apps

#endif // SENTRY_APPS_CLI_ARGS_HH
