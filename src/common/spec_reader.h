// The one reader behind every textual input: the `--faults` and `--requests`
// spec grammars, Flags' typed getters, the ECLBTRS1 text codec and the CSV
// trace loader.  A spec is `;`-separated items whose arguments are
// `,`-separated `key=value` pairs; blanks (space, tab, CR) around any token
// are ignored.  A number must fill its whole token and be finite; an integer
// must fit its type (never saturated).  Spec diagnostics share one shape:
//   <grammar>: <what> '<item>' at offset N[; <expected>]
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eclb::common {

/// `s` without leading and trailing blanks.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Reads all of `text` as a number, `inf` and `nan` included.  Only Flags
/// uses it, to tell a negative value from an option; read_number() is the
/// rule for values.
[[nodiscard]] bool scan_double(std::string_view text, double* out);

/// Reads all of `text` as a finite number, or as an integer in range.
[[nodiscard]] bool read_number(std::string_view text, double* out);
[[nodiscard]] bool read_number(std::string_view text, std::uint64_t* out);
[[nodiscard]] bool read_number(std::string_view text, std::int64_t* out);

/// `v` as to_spec() writes it: "%g" (six significant digits) when that reads
/// back as exactly `v`, else the fewest digits that do, so a re-read spec
/// keeps every value (amp=0.9999999 must not come back as the invalid 1).
[[nodiscard]] std::string format_number(double v);

/// Reads `text` as the enumerator among the first `count` of `E` whose
/// to_string() it spells.
template <class E>
[[nodiscard]] bool read_name(std::string_view text, std::size_t count, E* out) {
  for (std::size_t i = 0; i < count; ++i) {
    if (to_string(static_cast<E>(i)) == trim(text)) {
      *out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

/// One non-empty, trimmed item and its byte offset in the spec.
struct SpecItem {
  std::string_view text;
  std::size_t offset{0};
};

/// An item's trimmed `key=value` arguments, in spec order.
using SpecArgs = std::vector<std::pair<std::string_view, std::string_view>>;

/// Walks one spec's items and formats its diagnostics into `error` (may be
/// null); `grammar` ("faults", "requests") prefixes every message.
class SpecReader {
 public:
  SpecReader(std::string_view grammar, std::string_view spec,
             std::string* error)
      : grammar_(grammar), spec_(spec), error_(error) {}

  /// Advances to the next item; false at the end of the spec.
  [[nodiscard]] bool next(SpecItem* item);
  /// Splits `args`, a part of `item`; a part without a key fails.
  [[nodiscard]] bool split_args(std::string_view args, const SpecItem& item,
                                SpecArgs* out) const;
  /// Stores the item diagnostic and returns false.
  bool fail(const SpecItem& item, std::string_view what,
            std::string_view expected = {}) const;
  /// Stores "<grammar>: <message>" and returns false.
  bool fail(std::string_view message) const;

 private:
  std::string_view grammar_;
  std::string_view spec_;
  std::string* error_;
  std::size_t cursor_{0};
};

}  // namespace eclb::common
