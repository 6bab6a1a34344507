// The `--requests` flag grammar: a compact spec for request workloads.
//
// Read like the fault-plan spec (fault/fault_plan.h), through the shared
// common/spec_reader: semicolon-separated items, each a stream
// `kind:key=value,...` or a bare global `key=value` parameter, with
// byte-offset diagnostics and an expected-grammar hint.  Every number must
// be finite.  parse(to_spec()) round-trips.
//
//   --requests "poisson:rate=200,mean=0.2;flash:rate=50,burst=8;seed=7"
//
// Stream items:
//   poisson:rate=R                        homogeneous Poisson arrivals
//   diurnal:rate=R[,amp=A,period=S]       sinusoidal day/night swing
//   flash:rate=R[,burst=M,on=S,off=S]     MMPP-2 flash crowds (1 <= M <=
//                                         1000; on/off means >= 0.001 s)
//   trace:file=PATH[,scale=F]             rate replayed from a trace stream
// Per-stream options (any item): service=exp|lognormal|pareto, mean=S,
//   sigma=F, alpha=F, sla=SECS.
// Global parameters: seed=N, util=F (queue-to-demand target utilization),
//   sla=SECS (default for streams without their own),
//   admit=none|tail-drop|deadline-shed (admission policy), cap=N (tail-drop
//   backlog cap), budget=SECS (deadline-shed wait budget; 0 = stream SLA),
//   drain=N (migration draining window, intervals; 0 = teleport backlog).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workload/engine/arrivals.h"

namespace eclb::workload::engine {

/// Load-shedding policies applied by the request driver at enqueue time.
/// Decisions are pure functions of the target queue's state, so they draw
/// no randomness and leave every arrival stream's RNG untouched.
enum class AdmissionPolicy : std::uint8_t {
  kNone = 0,          ///< Accept everything (the PR-8 behavior; default).
  kTailDrop = 1,      ///< Shed when a VM's queue depth has reached `cap`.
  kDeadlineShed = 2,  ///< Shed when the queue-predicted wait exceeds the
                      ///< budget (explicit `budget`, else the stream SLA).
};

/// Display name ("none" / "tail-drop" / "deadline-shed").
[[nodiscard]] std::string_view to_string(AdmissionPolicy policy);

/// A parsed request workload: the streams plus the engine-level knobs.
struct RequestWorkloadConfig {
  std::vector<StreamSpec> streams;

  /// Master seed of the engine; stream `i` draws from mix_seed(seed, i).
  std::uint64_t seed{1};

  /// Queue-to-demand conversion target: a VM asks for enough capacity to
  /// serve its backlog at this utilization (demand = work rate / util).
  double target_utilization{0.7};

  /// Admission control (flag-gated: kNone reproduces PR-8 byte-for-byte).
  AdmissionPolicy admission{AdmissionPolicy::kNone};

  /// kTailDrop: maximum queued requests per VM before arrivals shed.
  std::uint32_t admission_cap{256};

  /// kDeadlineShed: wait budget in seconds; 0 means "use the arriving
  /// request's stream SLA" so heterogeneous mixes shed per their own bar.
  double admission_budget_seconds{0.0};

  /// Migration draining window, in reallocation intervals.  0 keeps the
  /// PR-8 teleport semantics; > 0 leaves a draining residue on the source
  /// host that is handed back deterministically when the window closes.
  std::uint32_t drain_intervals{0};

  /// Parses the flag spec.  On failure returns nullopt and, when `error` is
  /// non-null, a diagnostic with the byte offset and expected grammar.
  [[nodiscard]] static std::optional<RequestWorkloadConfig> parse(
      std::string_view spec, std::string* error);

  /// Sets one global parameter from its spec spelling: `seed`, `util`,
  /// `admit`, `cap`, `budget` or `drain` -- the CLI's `--admission`,
  /// `--admission-cap`, `--admission-budget` and `--drain-intervals` are
  /// spellings of the last four.  `sla` is accepted only with `global_sla`,
  /// which parse() applies to every stream without its own.  On an unknown
  /// key or a bad value returns false and, when `expected` is non-null,
  /// stores what the value should have been.
  [[nodiscard]] bool set_global(std::string_view key, std::string_view value,
                                std::string* expected,
                                std::optional<double>* global_sla = nullptr);

  /// Serializes back into the flag syntax (parse(to_spec()) round-trips).
  [[nodiscard]] std::string to_spec() const;
};

}  // namespace eclb::workload::engine
