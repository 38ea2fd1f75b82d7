#include "util/string_util.h"

#include <cstdio>

namespace watchman {

namespace {

bool IsDelimiter(char c) {
  switch (c) {
    case ' ':
    case '\t':
    case '\n':
    case '\r':
    case ',':
    case '(':
    case ')':
    case ';':
      return true;
    default:
      return false;
  }
}

constexpr char kSeparator = '\x1f';

}  // namespace

void CompressQueryIdInto(std::string_view query_text, std::string* out) {
  // The ID is never longer than the text (a separator replaces at least
  // one delimiter), so size the buffer once and write through a pointer.
  out->resize(query_text.size());
  char* const begin = out->data();
  char* end = begin;
  bool in_delim_run = false;
  for (const char c : query_text) {
    if (IsDelimiter(c)) {
      in_delim_run = true;
      continue;
    }
    if (in_delim_run && end != begin) *end++ = kSeparator;
    in_delim_run = false;
    *end++ = AsciiToLower(c);
  }
  out->resize(static_cast<size_t>(end - begin));
}

std::string CompressQueryId(std::string_view query_text) {
  std::string out;
  CompressQueryIdInto(query_text, &out);
  return out;
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      break;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < sizeof(kUnits) / sizeof(kUnits[0])) {
    value /= 1024.0;
    ++unit;
  }
  char buf[64];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", value, kUnits[unit]);
  }
  return buf;
}

StatusOr<uint64_t> ParseByteSize(const std::string& text) {
  size_t pos = 0;
  uint64_t value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    const uint64_t digit = static_cast<uint64_t>(text[pos] - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument("byte size overflows: " + text);
    }
    value = value * 10 + digit;
    ++pos;
  }
  if (pos == 0) {
    return Status::InvalidArgument("bad byte size: " + text);
  }
  std::string suffix = text.substr(pos);
  for (char& c : suffix) c = AsciiToLower(c);
  int shift = 0;
  if (suffix.empty() || suffix == "b") {
    shift = 0;
  } else if (suffix == "k" || suffix == "kb" || suffix == "kib") {
    shift = 10;
  } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
    shift = 20;
  } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
    shift = 30;
  } else {
    return Status::InvalidArgument("bad byte size suffix: " + text);
  }
  if (shift != 0 && value > (UINT64_MAX >> shift)) {
    return Status::InvalidArgument("byte size overflows: " + text);
  }
  value <<= shift;
  if (value == 0) {
    return Status::InvalidArgument("byte size must be positive: " + text);
  }
  return value;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseFlag(std::string_view arg, std::string_view name,
               std::string* value) {
  const std::string prefix = "--" + std::string(name) + "=";
  if (!StartsWith(arg, prefix)) return false;
  value->assign(arg.substr(prefix.size()));
  return true;
}

bool ParseUint(std::string_view text, uint64_t max, uint64_t* out) {
  if (text.empty() || text.size() > 10) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > max) return false;
  }
  *out = value;
  return true;
}

}  // namespace watchman
