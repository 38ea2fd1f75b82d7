// String helpers, including the query-ID compression described in the
// paper (section 3): a query ID is the query string with every delimiter
// run substituted by a single special character.

#ifndef WATCHMAN_UTIL_STRING_UTIL_H_
#define WATCHMAN_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace watchman {

/// Lower-cases ASCII `A`-`Z` and returns every other byte unchanged,
/// bytes >= 0x80 included: the C locale's tolower, without the locale
/// lookup libc pays per call.
inline char AsciiToLower(char c) {
  return static_cast<unsigned char>(c - 'A') < 26 ? static_cast<char>(c + 32)
                                                  : c;
}

/// Compresses a query string into a query ID: runs of SQL delimiters
/// (whitespace, commas, parentheses, semicolons) collapse into a single
/// US (0x1f) separator; ASCII letters are lower-cased (AsciiToLower).
/// Two queries differing only in formatting map to the same ID.
std::string CompressQueryId(std::string_view query_text);

/// CompressQueryId into a caller-owned buffer: `out` is cleared and
/// refilled, reusing its capacity. The hot request path compresses into
/// a per-thread scratch string, so steady state allocates nothing.
void CompressQueryIdInto(std::string_view query_text, std::string* out);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins parts with a delimiter string.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Formats a byte count with a binary-unit suffix ("16.1 MiB").
std::string HumanBytes(uint64_t bytes);

/// Parses a byte count from CLI text: plain digits or a binary-unit
/// suffix -- "262144", "256k", "64m", "64mb", "64mib", "2g" (suffixes
/// case-insensitive). InvalidArgument on malformed input, zero, or
/// overflow. The inverse direction of HumanBytes.
StatusOr<uint64_t> ParseByteSize(const std::string& text);

/// Formats a double with fixed precision (printf "%.*f").
std::string FormatDouble(double value, int precision);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Matches the command-line flag `--name=value`: true, with the text
/// after '=' in *value, when `arg` is that flag; false otherwise.
bool ParseFlag(std::string_view arg, std::string_view name,
               std::string* value);

/// Strict decimal parse bounded by `max`: one to ten digits, no sign
/// and no other byte. Rejects garbage instead of misreading it, so
/// --port=12ab never dials port 12.
bool ParseUint(std::string_view text, uint64_t max, uint64_t* out);

}  // namespace watchman

#endif  // WATCHMAN_UTIL_STRING_UTIL_H_
