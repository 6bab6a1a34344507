#include "common/spec_reader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace eclb::common {

namespace {

template <class Int>
bool read_integer(std::string_view text, Int* out) {
  text = trim(text);
  // strtoll's optional '+'; from_chars takes only '-'.
  if (text.size() > 1 && text[0] == '+' && text[1] != '-') {
    text.remove_prefix(1);
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc{} && ptr == end;
}

}  // namespace

std::string_view trim(std::string_view s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return s.substr(s.size());
  return s.substr(first, s.find_last_not_of(" \t\r") - first + 1);
}

bool scan_double(std::string_view text, double* out) {
  const std::string buf(trim(text));  // strtod needs NUL termination.
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return !buf.empty() && end == buf.c_str() + buf.size();
}

bool read_number(std::string_view text, double* out) {
  return scan_double(text, out) && std::isfinite(*out);
}

bool read_number(std::string_view text, std::uint64_t* out) {
  return read_integer(text, out);
}

bool read_number(std::string_view text, std::int64_t* out) {
  return read_integer(text, out);
}

std::string format_number(double v) {
  char buf[32];
  for (int digits = 6;; ++digits) {
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    if (digits == 17 || std::strtod(buf, nullptr) == v) return buf;
  }
}

bool SpecReader::next(SpecItem* item) {
  while (cursor_ < spec_.size()) {
    const std::size_t semi = std::min(spec_.find(';', cursor_), spec_.size());
    const std::string_view raw = spec_.substr(cursor_, semi - cursor_);
    const std::string_view text = trim(raw);
    const std::size_t start = cursor_;
    cursor_ = semi + 1;
    if (text.empty()) continue;
    *item = {text, start + static_cast<std::size_t>(text.data() - raw.data())};
    return true;
  }
  return false;
}

bool SpecReader::split_args(std::string_view args, const SpecItem& item,
                            SpecArgs* out) const {
  while (!args.empty()) {
    const std::size_t comma = std::min(args.find(','), args.size());
    const std::string_view part = trim(args.substr(0, comma));
    args.remove_prefix(std::min(comma + 1, args.size()));
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return fail(item, "expected key=value in");
    }
    out->emplace_back(trim(part.substr(0, eq)), trim(part.substr(eq + 1)));
  }
  return true;
}

bool SpecReader::fail(const SpecItem& item, std::string_view what,
                      std::string_view expected) const {
  std::string message = std::string(what) + " '" + std::string(item.text) +
                        "' at offset " + std::to_string(item.offset);
  if (!expected.empty()) message += "; " + std::string(expected);
  return fail(message);
}

bool SpecReader::fail(std::string_view message) const {
  if (error_ != nullptr) {
    *error_ = std::string(grammar_) + ": " + std::string(message);
  }
  return false;
}

}  // namespace eclb::common
