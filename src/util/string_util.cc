#include "util/string_util.h"

#include <string.h>

#include <cctype>

namespace mad {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string StrCat(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) out.append(part);
  return out;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

namespace {

// strerror_r comes in two flavours; overload resolution normalizes either
// one to the message pointer.
inline const char* StrerrorResult(int rc, const char* buf) {  // POSIX
  return rc == 0 ? buf : "unknown error";
}
inline const char* StrerrorResult(const char* message,  // GNU
                                  const char* /*buf*/) {
  return message;
}

}  // namespace

std::string ErrnoMessage(int errno_value) {
  char buf[128] = "unknown error";
  return StrerrorResult(strerror_r(errno_value, buf, sizeof(buf)), buf);
}

}  // namespace mad
