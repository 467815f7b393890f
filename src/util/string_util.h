#ifndef MAD_UTIL_STRING_UTIL_H_
#define MAD_UTIL_STRING_UTIL_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace mad {

/// Joins `parts` with `sep` ("a", "b" -> "a, b" for sep=", ").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Concatenates `parts` into one string sized up front. Use it instead of
/// `"literal" + std::string&&`: GCC 12 inlines that operator+ into an insert
/// at offset 0 and reports a false -Wrestrict overlap.
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Splits `text` at every occurrence of `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Case-insensitive ASCII equality (used for MQL keywords).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// The system error message for `errno_value`, like std::strerror but
/// thread-safe (strerror_r under the hood; std::strerror may return a
/// pointer into static storage rewritten by a concurrent caller).
std::string ErrnoMessage(int errno_value);

}  // namespace mad

#endif  // MAD_UTIL_STRING_UTIL_H_
