#include "common/flags.h"

#include <algorithm>
#include <cstdint>

#include "common/spec_reader.h"

namespace eclb::common {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      // `--name=value`; `--name=` deliberately stores an empty value.
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // Peek at the next token for a space-separated value.  Option-like
    // tokens (leading "-" and not a number) are NOT swallowed, so
    // `--verbose --out x` leaves --verbose valueless while
    // `--threshold -5` still takes its negative value ("-inf" too, so
    // get_double() reports it instead of it turning positional).
    if (i + 1 < argc) {
      const std::string next = argv[i + 1];
      double number = 0.0;
      const bool option_like =
          next.rfind("-", 0) == 0 && !scan_double(next, &number);
      if (!option_like) {
        flags.values_[body] = next;
        ++i;
        continue;
      }
    }
    flags.values_[body] = std::nullopt;  // present, valueless
  }
  return flags;
}

bool Flags::has(const std::string& name) const {
  return values_.contains(name);
}

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  if (it == values_.end() || !it->second.has_value()) return fallback;
  return *it->second;  // an explicit empty value ("--out=") passes through
}

template <class T>
T Flags::read(const std::string& name, T fallback, const char* what) {
  auto it = values_.find(name);
  if (it == values_.end() || !it->second.has_value() || it->second->empty()) {
    return fallback;
  }
  T v{};
  if (read_number(*it->second, &v)) return v;
  errors_.push_back("--" + name + ": expected " + what + ", got '" +
                    *it->second + "'");
  return fallback;
}

long long Flags::get_int(const std::string& name, long long fallback) {
  return read<std::int64_t>(name, fallback, "a 64-bit integer");
}

double Flags::get_double(const std::string& name, double fallback) {
  return read(name, fallback, "a finite number");
}

bool Flags::get_bool(const std::string& name, bool fallback) {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (!it->second.has_value()) return true;  // bare --flag
  const std::string& v = *it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  errors_.push_back("--" + name + ": expected a boolean, got '" + v + "'");
  return fallback;
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Flags::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (std::find(known.begin(), known.end(), k) == known.end()) {
      out.push_back(k);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace eclb::common
