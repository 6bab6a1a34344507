// Minimal command-line flag parsing for the bench binaries and the CLI tool.
//
// Supports `--name value`, `--name=value` and boolean `--name` forms; no
// global registry, no macros -- the caller declares what it expects and gets
// typed lookups with defaults.  Unknown flags are collected so tools can
// reject typos instead of silently ignoring them.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace eclb::common {

/// Parsed command line.
class Flags {
 public:
  /// Parses argv.  Anything starting with "--" is a flag; a following token
  /// becomes its value unless the flag used the `--name=value` form or the
  /// token is option-like (starts with "-" and is not a number, so
  /// `--threshold -5` works but `--verbose --out x` leaves `--verbose`
  /// valueless).  Remaining tokens are positional arguments.
  static Flags parse(int argc, const char* const* argv);

  /// True when the flag was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value; `fallback` only when the flag is absent or valueless.
  /// An explicit empty value (`--out=`) is returned as "" -- being able to
  /// clear a default is the point of the `=` form.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;

  /// Integer value; `fallback` when absent or valueless.  A value that is
  /// not a whole integer, or lies outside the 64-bit range, returns
  /// `fallback` and is reported through errors().
  [[nodiscard]] long long get_int(const std::string& name, long long fallback);

  /// Floating-point value, read like get_int(); `inf` and `nan` are errors.
  [[nodiscard]] double get_double(const std::string& name, double fallback);

  /// Boolean: present without value or with value in {1,true,yes,on}.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback = false) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Names seen on the command line (for unknown-flag checks).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Parse errors accumulated by typed getters (bad integers etc.).
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }

  /// Convenience: verifies every present flag is in `known`; returns the
  /// offenders.
  [[nodiscard]] std::vector<std::string> unknown(
      const std::vector<std::string>& known) const;

 private:
  /// nullopt marks a valueless flag (`--verbose`); an empty string is an
  /// explicit empty value (`--out=`).  The distinction is what lets get()
  /// honour deliberately cleared values.
  std::unordered_map<std::string, std::optional<std::string>> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;

  /// The value of `name` through common::read_number; `fallback` when it is
  /// absent or empty, or malformed (recorded in errors_ as "expected what").
  template <class T>
  T read(const std::string& name, T fallback, const char* what);
};

}  // namespace eclb::common
