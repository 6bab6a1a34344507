#include "experiment/report.h"

#include <algorithm>
#include <cmath>

#include "common/table.h"
#include "obs/counters.h"

namespace eclb::experiment {

void print_regime_panel(std::ostream& out, const std::string& title,
                        const AggregateOutcome& outcome) {
  out << title << "\n";
  common::TextTable table({"Regime", "Initial servers", "Final servers"});
  static const char* kNames[] = {"R1 undesirable-low", "R2 suboptimal-low",
                                 "R3 optimal", "R4 suboptimal-high",
                                 "R5 undesirable-high"};
  for (std::size_t b = 0; b < energy::kRegimeCount; ++b) {
    table.row({kNames[b], common::TextTable::num(outcome.mean_initial_histogram[b], 1),
               common::TextTable::num(outcome.mean_final_histogram[b], 1)});
  }
  table.print(out);
  out << "\n";
}

void print_ratio_panel(std::ostream& out, const std::string& title,
                       const AggregateOutcome& outcome) {
  out << title << "\n";
  out << "  shape: " << sparkline(outcome.mean_ratio_series.y) << "\n";
  common::TextTable table({"Interval", "In-cluster/local ratio"});
  for (std::size_t i = 0; i < outcome.mean_ratio_series.size(); ++i) {
    table.row({common::TextTable::num(static_cast<long long>(i)),
               common::TextTable::num(outcome.mean_ratio_series.y[i], 4)});
  }
  table.print(out);
  out << "\n";
}

Table2Row make_table2_row(const std::string& plot_label, std::size_t cluster_size,
                          AverageLoad load, const AggregateOutcome& outcome) {
  Table2Row row;
  row.plot_label = plot_label;
  row.cluster_size = cluster_size;
  row.load = load;
  row.sleepers = outcome.deep_sleepers.mean();
  row.average_ratio = outcome.average_ratio.mean();
  row.ratio_stddev = outcome.ratio_stddev.mean();
  return row;
}

void print_table2(std::ostream& out, const std::vector<Table2Row>& rows) {
  common::TextTable table({"Plot", "Cluster size", "Average load",
                           "Avg # servers in sleep state", "Average ratio",
                           "Standard deviation"});
  for (const auto& r : rows) {
    table.row({r.plot_label,
               common::TextTable::num(static_cast<long long>(r.cluster_size)),
               to_string(r.load), common::TextTable::num(r.sleepers, 1),
               common::TextTable::num(r.average_ratio, 4),
               common::TextTable::num(r.ratio_stddev, 4)});
  }
  table.print(out);
}

std::string sparkline(const std::vector<double>& values) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  if (values.empty()) return {};
  const double hi = *std::max_element(values.begin(), values.end());
  const double lo = std::min(0.0, *std::min_element(values.begin(), values.end()));
  std::string out;
  out.reserve(values.size());
  for (double v : values) {
    const double norm = hi <= lo ? 0.0 : (v - lo) / (hi - lo);
    const auto idx = static_cast<std::size_t>(
        std::clamp(norm * 7.0, 0.0, 7.0));
    out += kLevels[idx];
  }
  return out;
}

void print_registry_summary(std::ostream& out,
                            const obs::MetricsRegistry& registry) {
  const auto count = [&registry](std::string_view name) -> std::uint64_t {
    const obs::Counter* c = registry.find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  // Report counters are looked up through their kReportCounters row.
  using R = cluster::IntervalReport;
  const auto field = [&count](std::size_t R::*f) {
    return count(obs::report_metric(f));
  };
  out << "Aggregated protocol metrics (all panels, all replications):\n"
      << "  intervals: " << count(obs::kIntervalsMetric)
      << "   decisions: " << field(&R::local_decisions) << " local / "
      << field(&R::in_cluster_decisions) << " in-cluster\n"
      << "  migrations: " << field(&R::migrations) << " ("
      << field(&R::shed_migrations) << " shed, "
      << field(&R::rebalance_migrations) << " rebalance, "
      << field(&R::consolidation_migrations) << " consolidation)"
      << "   remote starts: " << field(&R::horizontal_starts) << "\n"
      << "  sleeps: " << field(&R::sleeps)
      << "   wakes: " << field(&R::wakes)
      << "   SLA violations: " << field(&R::sla_violations)
      << "   QoS violations: " << field(&R::qos_violations) << "\n";
  const obs::Gauge* energy = registry.find_gauge(obs::kEnergyMetric);
  if (energy != nullptr) {
    out << "  energy: " << energy->value() << " kWh\n";
  }
  const obs::HistogramMetric* ratio =
      registry.find_histogram(obs::kDecisionRatioMetric);
  if (ratio != nullptr && ratio->count() > 0) {
    out << "  interval decision ratio: mean " << ratio->mean() << " over "
        << ratio->count() << " intervals\n";
  }
}

}  // namespace eclb::experiment
