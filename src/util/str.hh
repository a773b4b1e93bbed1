/**
 * @file
 * Small string helpers used across the library.
 */

#ifndef CT_UTIL_STR_HH
#define CT_UTIL_STR_HH

#include <string>
#include <string_view>
#include <vector>

namespace ct {

/** Split @p text on @p sep; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char sep);

/** Join @p parts with @p sep between each element. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(std::string_view text);

/** True if @p text begins with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True if @p text ends with @p suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view text);

/** printf into a string; output past 511 characters is truncated. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Format a double with @p digits significant decimals, trimming zeros. */
std::string formatDouble(double value, int digits = 4);

/**
 * Parse a string as a double/long, with error reporting.
 * @retval true on success (result stored through @p out).
 */
bool parseDouble(std::string_view text, double &out);
bool parseLong(std::string_view text, long &out);

} // namespace ct

#endif // CT_UTIL_STR_HH
