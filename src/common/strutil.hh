/**
 * @file
 * Small string helpers: printf-style formatting into std::string, a
 * few joining utilities used by stats dumping and the bench
 * harnesses, and the strict number parsers every numeric
 * command-line flag goes through.
 */

#ifndef EDGE_COMMON_STRUTIL_HH
#define EDGE_COMMON_STRUTIL_HH

#include <cstdarg>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace edge {

/** printf into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list ap);

/** Join the given pieces with a separator. */
std::string join(const std::vector<std::string> &pieces,
                 const std::string &sep);

/** Split on a single-character separator (no empty-tail trimming). */
std::vector<std::string> split(const std::string &s, char sep);

/** Left-pad (right-align) a string to the given width with spaces. */
std::string padLeft(const std::string &s, std::size_t width);

/** Right-pad (left-align) a string to the given width with spaces. */
std::string padRight(const std::string &s, std::size_t width);

/**
 * Parse the whole of `text` as the decimal value of command-line flag
 * `flag`. fatal() naming the flag on an empty value, a sign or other
 * non-digit, trailing characters, or a value above `max`.
 */
std::uint64_t
parseU64(const std::string &flag, const std::string &text,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

} // namespace edge

#endif // EDGE_COMMON_STRUTIL_HH
