// Trace persistence: save and load demand traces as two-column CSV
// ("time_s,demand"), so experiments can replay recorded or external
// workloads (e.g. converted production traces) byte-for-byte.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "workload/trace.h"

namespace eclb::workload {

/// Writes `trace` to `out` as CSV with a header row.
void save_trace(std::ostream& out, const Trace& trace);

/// Parses a trace from CSV previously written by save_trace.  Returns
/// nullopt on malformed input (missing header, non-numeric cells, fewer
/// than two samples, or non-uniform time spacing).
[[nodiscard]] std::optional<Trace> load_trace(std::istream& in);

/// Loads a trace from the file at `path`.
[[nodiscard]] std::optional<Trace> load_trace_file(const std::string& path);

}  // namespace eclb::workload
