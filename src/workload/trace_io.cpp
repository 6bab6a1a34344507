#include "workload/trace_io.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "common/spec_reader.h"

namespace eclb::workload {

void save_trace(std::ostream& out, const Trace& trace) {
  common::CsvWriter writer(out, {"time_s", "demand"});
  for (std::size_t i = 0; i < trace.size(); ++i) {
    writer.row({common::CsvWriter::cell(trace.time_of(i).value),
                common::CsvWriter::cell(trace.at(i))});
  }
}

std::optional<Trace> load_trace(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  // Tolerate any header naming, but require exactly two columns.
  if (line.find(',') == std::string::npos) return std::nullopt;

  std::vector<double> times;
  std::vector<double> values;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::string_view row = line;
    const auto comma = row.find(',');
    double t = 0.0;
    double v = 0.0;
    if (comma == std::string_view::npos ||
        !common::read_number(row.substr(0, comma), &t) ||
        !common::read_number(row.substr(comma + 1), &v) || v < 0.0) {
      return std::nullopt;
    }
    times.push_back(t);
    values.push_back(v);
  }
  if (times.size() < 2) return std::nullopt;

  const double dt = times[1] - times[0];
  if (dt <= 0.0) return std::nullopt;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double step = times[i] - times[i - 1];
    if (std::abs(step - dt) > 1e-6 * dt) return std::nullopt;  // non-uniform
  }
  return Trace(common::Seconds{dt}, std::move(values));
}

std::optional<Trace> load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return load_trace(in);
}

}  // namespace eclb::workload
