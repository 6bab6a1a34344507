// Property tests for the request engine: arrival-rate laws, seed
// determinism, heavy-tail service moments, the spec grammar, the exact
// fluid serve kernel, and the log-scale sojourn histogram.
#include "workload/engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "workload/engine/latency.h"
#include "workload/engine/queue.h"
#include "workload/engine/sampler.h"
#include "workload/engine/spec.h"

namespace eclb::workload::engine {
namespace {

using common::Seconds;

// --- spec grammar -----------------------------------------------------------

TEST(RequestSpec, ParsesMinimalStream) {
  std::string error;
  const auto cfg = RequestWorkloadConfig::parse("poisson:rate=100", &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  ASSERT_EQ(cfg->streams.size(), 1U);
  EXPECT_EQ(cfg->streams[0].kind, StreamKind::kPoisson);
  EXPECT_DOUBLE_EQ(cfg->streams[0].rate, 100.0);
  EXPECT_EQ(cfg->seed, 1U);
  EXPECT_DOUBLE_EQ(cfg->target_utilization, 0.7);
}

TEST(RequestSpec, ParsesMultiStreamWithGlobals) {
  std::string error;
  const auto cfg = RequestWorkloadConfig::parse(
      "poisson:rate=200,mean=0.1,service=pareto,alpha=2.2;"
      "flash:rate=40,burst=6,on=90,off=700,sla=30;"
      "seed=11;util=0.5;sla=2",
      &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  ASSERT_EQ(cfg->streams.size(), 2U);
  EXPECT_EQ(cfg->seed, 11U);
  EXPECT_DOUBLE_EQ(cfg->target_utilization, 0.5);
  EXPECT_EQ(cfg->streams[0].service.kind, ServiceKind::kPareto);
  EXPECT_DOUBLE_EQ(cfg->streams[0].service.alpha, 2.2);
  // The global sla applies to streams without their own.
  EXPECT_DOUBLE_EQ(cfg->streams[0].sla_seconds, 2.0);
  EXPECT_DOUBLE_EQ(cfg->streams[1].sla_seconds, 30.0);
  EXPECT_DOUBLE_EQ(cfg->streams[1].burst, 6.0);
}

TEST(RequestSpec, RoundTripsThroughToSpec) {
  std::string error;
  const auto cfg = RequestWorkloadConfig::parse(
      "diurnal:rate=80,amp=0.4,period=7200;trace:file=/tmp/x.trs,scale=2;"
      "flash:rate=5,on=0.001,off=0.001;seed=3;util=0.6",
      &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto again = RequestWorkloadConfig::parse(cfg->to_spec(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_spec(), cfg->to_spec());
  ASSERT_EQ(again->streams.size(), 3U);
  EXPECT_DOUBLE_EQ(again->streams[0].amplitude, 0.4);
  EXPECT_EQ(again->streams[1].trace_file, "/tmp/x.trs");
  // The shortest accepted flash means.
  EXPECT_DOUBLE_EQ(again->streams[2].on_mean.value, 0.001);
  EXPECT_DOUBLE_EQ(again->streams[2].off_mean.value, 0.001);
}

TEST(RequestSpec, DiagnosticsCarryByteOffsetAndGrammar) {
  // Errors follow the fault-plan style: the failing item, its byte offset
  // in the full spec, and the expected grammar.
  std::string error;
  EXPECT_FALSE(
      RequestWorkloadConfig::parse("poisson:rate=50;bogus:rate=1", &error)
          .has_value());
  EXPECT_NE(error.find("at offset 16"), std::string::npos) << error;
  EXPECT_NE(error.find("expected"), std::string::npos) << error;

  EXPECT_FALSE(
      RequestWorkloadConfig::parse("poisson:rate=-3", &error).has_value());
  EXPECT_NE(error.find("rate"), std::string::npos) << error;
  EXPECT_NE(error.find("at offset 0"), std::string::npos) << error;

  EXPECT_FALSE(RequestWorkloadConfig::parse("seed=4", &error).has_value());
  EXPECT_NE(error.find("no stream"), std::string::npos) << error;
}

TEST(RequestSpec, RejectsKnobsThatWouldWrapOrBeNan) {
  // cap and drain are stored as u32; 2^32 used to pass the parse and wrap
  // (cap to 0, so tail-drop shed every arrival, and to_spec emitted cap=0,
  // which does not re-parse).  A flash stream draws one sojourn per on/off
  // toggle, so a mean of 1e-300 s needed ~1e298 toggles per window and the
  // run never returned; means below 1 ms are out of range.
  std::string error;
  for (const char* spec : {
           "poisson:rate=5;admit=tail-drop;cap=4294967296",
           "poisson:rate=5;admit=tail-drop;cap=18446744073709551615",
           "poisson:rate=5;admit=tail-drop;cap=0",
           "poisson:rate=5;drain=4294967296",
           "poisson:rate=5;flash:rate=5,on=1e-300,off=1e-300",
           "poisson:rate=5;flash:rate=5,on=1e-4",
           "poisson:rate=5;flash:rate=5,off=0.0009",
       }) {
    error.clear();
    EXPECT_FALSE(RequestWorkloadConfig::parse(spec, &error).has_value())
        << spec;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    const std::string offset =
        "at offset " + std::to_string(std::string(spec).rfind(';') + 1);
    EXPECT_NE(error.find(offset), std::string::npos) << error;
  }
  for (const char* spec : {
           "poisson:rate=5;admit=deadline-shed;budget=nan",
           "poisson:rate=5;admit=deadline-shed;budget=inf",
           "poisson:rate=5;admit=deadline-shed;budget=-1",
       }) {
    error.clear();
    EXPECT_FALSE(RequestWorkloadConfig::parse(spec, &error).has_value())
        << spec;
    EXPECT_NE(error.find("bad parameter"), std::string::npos) << error;
  }
}

TEST(RequestSpec, RejectsNonFiniteNumbersAndHugeBursts) {
  // burst=inf and 1e300 never finished a window (the thinning envelope is
  // rate * burst in both phases), rate=inf exhausted memory and mean=inf
  // printed an infinite backlog.
  for (const char* spec : {
           "poisson:rate=inf", "poisson:rate=nan", "poisson:rate=1e309",
           "poisson:rate=10,mean=inf", "flash:rate=10,burst=inf",
           "diurnal:rate=5,period=inf", "poisson:rate=5,sla=nan",
           "poisson:rate=5,sigma=inf", "poisson:rate=5;util=nan",
           "poisson:rate=5;sla=inf", "poisson:rate=5;seed=18446744073709551616",
       }) {
    std::string error;
    EXPECT_FALSE(RequestWorkloadConfig::parse(spec, &error).has_value())
        << spec;
    EXPECT_EQ(error.rfind("requests: ", 0), 0U) << error;
    EXPECT_NE(error.find("at offset"), std::string::npos) << error;
  }
  for (const char* spec : {"flash:rate=10,burst=1e300",
                           "flash:rate=10,burst=1000.5",
                           "flash:rate=10,burst=0.5"}) {
    std::string error;
    EXPECT_FALSE(RequestWorkloadConfig::parse(spec, &error).has_value())
        << spec;
    EXPECT_NE(error.find("burst out of range"), std::string::npos) << error;
    EXPECT_NE(error.find("[1, 1000]"), std::string::npos) << error;
  }
  std::string error;
  const auto widest =
      RequestWorkloadConfig::parse("flash:rate=10,burst=1000", &error);
  ASSERT_TRUE(widest.has_value()) << error;
  EXPECT_DOUBLE_EQ(widest->streams[0].burst, 1000.0);
}

TEST(RequestSpec, PeakRateAndServiceMeanAreBounded) {
  // rate=1e9 ran out of memory holding one window's arrivals and mean=1e300
  // printed a 300-digit backlog.  The peak rate counts the diurnal swing
  // and the flash multiplier; a mean past the latency histogram's top only
  // lands in overflow.
  for (const char* spec : {"poisson:rate=1e9", "poisson:rate=1000000.0001",
                           "diurnal:rate=600000,amp=0.8",
                           "flash:rate=2000,burst=501",
                           "poisson:rate=5;flash:rate=1e6,burst=2"}) {
    std::string error;
    EXPECT_FALSE(RequestWorkloadConfig::parse(spec, &error).has_value())
        << spec;
    EXPECT_EQ(error.rfind("requests: ", 0), 0U) << error;
    EXPECT_NE(error.find("peak rate out of range"), std::string::npos)
        << error;
    EXPECT_NE(error.find("at most 1e6 requests/s"), std::string::npos)
        << error;
  }
  for (const char* spec : {"poisson:rate=5,mean=1e300",
                           "poisson:rate=5,mean=10000.000001"}) {
    std::string error;
    EXPECT_FALSE(RequestWorkloadConfig::parse(spec, &error).has_value())
        << spec;
    EXPECT_NE(error.find("mean out of range"), std::string::npos) << error;
    EXPECT_NE(error.find("at most 10000 seconds"), std::string::npos)
        << error;
  }
  // The bounds themselves are accepted; a trace stream's rate is unused.
  for (const char* spec :
       {"poisson:rate=1e6,mean=10000", "diurnal:rate=500000,amp=0.99",
        "flash:rate=1000,burst=1000", "trace:file=/tmp/x.trs,rate=1e9"}) {
    std::string error;
    EXPECT_TRUE(RequestWorkloadConfig::parse(spec, &error).has_value())
        << spec << ": " << error;
  }
}

TEST(RequestSpec, SetGlobalIsTheOneCheckOfTheFlagSpellings) {
  // eclb_cli's --admission, --admission-cap, --admission-budget and
  // --drain-intervals go through set_global, exactly like the spec keys.
  RequestWorkloadConfig cfg;
  std::string expected;
  EXPECT_TRUE(cfg.set_global("admit", "tail-drop", &expected));
  EXPECT_EQ(cfg.admission, AdmissionPolicy::kTailDrop);
  EXPECT_TRUE(cfg.set_global("cap", "4294967295", &expected));
  EXPECT_EQ(cfg.admission_cap, 4294967295U);
  EXPECT_TRUE(cfg.set_global("drain", "0", &expected));
  EXPECT_TRUE(cfg.set_global("budget", "2.5", &expected));
  EXPECT_DOUBLE_EQ(cfg.admission_budget_seconds, 2.5);

  EXPECT_FALSE(cfg.set_global("cap", "0", &expected));
  EXPECT_EQ(expected,
            "cap out of range, expected an integer in [1, 4294967295]");
  EXPECT_FALSE(cfg.set_global("drain", "4294967296", &expected));
  EXPECT_EQ(expected,
            "drain out of range, expected an integer in [0, 4294967295]");
  EXPECT_EQ(cfg.admission_cap, 4294967295U);  // Refused values change nothing.
  for (const auto& [key, value] :
       {std::pair{"budget", "nan"}, {"budget", "-1"}, {"admit", "bogus"},
        {"admit", ""}, {"sla", "2"}, {"bogus", "1"}}) {
    EXPECT_FALSE(cfg.set_global(key, value, &expected)) << key << "=" << value;
    EXPECT_NE(expected.find("expected one of"), std::string::npos) << expected;
  }
  // The global sla needs parse()'s sink, which applies it to the streams.
  std::optional<double> sla;
  EXPECT_TRUE(cfg.set_global("sla", "2", &expected, &sla));
  EXPECT_EQ(sla, 2.0);
}

TEST(RequestSpec, ToSpecKeepsEveryDigit) {
  // Six significant digits used to print amp=0.9999999 as the invalid 1.
  std::string error;
  const auto cfg = RequestWorkloadConfig::parse(
      "diurnal:rate=123.4567891,amp=0.9999999;"
      "poisson:rate=5,service=pareto,alpha=1.0000001",
      &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto again = RequestWorkloadConfig::parse(cfg->to_spec(), &error);
  ASSERT_TRUE(again.has_value()) << cfg->to_spec() << ": " << error;
  EXPECT_EQ(again->to_spec(), cfg->to_spec());
  EXPECT_EQ(again->streams[0].rate, 123.4567891);
  EXPECT_EQ(again->streams[0].amplitude, 0.9999999);
  EXPECT_EQ(again->streams[1].service.alpha, 1.0000001);
}

TEST(RequestSpec, U32KnobLimitsRoundTrip) {
  std::string error;
  const auto cfg = RequestWorkloadConfig::parse(
      "poisson:rate=5;admit=tail-drop;cap=4294967295;drain=4294967295",
      &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->admission_cap, 4294967295U);
  EXPECT_EQ(cfg->drain_intervals, 4294967295U);
  const auto again = RequestWorkloadConfig::parse(cfg->to_spec(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_spec(), cfg->to_spec());
  EXPECT_EQ(again->admission_cap, cfg->admission_cap);
  EXPECT_EQ(again->drain_intervals, cfg->drain_intervals);

  const auto one = RequestWorkloadConfig::parse(
      "poisson:rate=5;admit=tail-drop;cap=1;drain=0", &error);
  ASSERT_TRUE(one.has_value()) << error;
  const auto one_again = RequestWorkloadConfig::parse(one->to_spec(), &error);
  ASSERT_TRUE(one_again.has_value()) << error;
  EXPECT_EQ(one_again->admission_cap, 1U);
  EXPECT_EQ(one_again->drain_intervals, 0U);
}

// --- service-time sampler ---------------------------------------------------

TEST(ServiceSampler, EmpiricalMeanMatchesEveryLaw) {
  // n = 200k draws: the lognormal with sigma = 1 has CV^2 = e - 1, so the
  // standard error of the mean is mean * sqrt((e-1)/n) ~ 0.3 % -- a 5-sigma
  // band stays a tight test without flaking.
  constexpr std::size_t kDraws = 200000;
  for (const ServiceKind kind :
       {ServiceKind::kExponential, ServiceKind::kLognormal,
        ServiceKind::kPareto}) {
    ServiceModel model;
    model.kind = kind;
    model.mean = 0.25;
    model.sigma = 1.0;
    model.alpha = 2.5;
    const ServiceSampler sampler(model);
    common::Rng rng(99);
    double sum = 0.0;
    for (std::size_t i = 0; i < kDraws; ++i) {
      const double s = sampler.sample(rng);
      ASSERT_GT(s, 0.0);
      sum += s;
    }
    const double mean = sum / static_cast<double>(kDraws);
    const double sigma_of_mean =
        std::sqrt(sampler.theoretical_variance() /
                  static_cast<double>(kDraws));
    EXPECT_NEAR(mean, sampler.theoretical_mean(), 5.0 * sigma_of_mean)
        << to_string(kind);
  }
}

TEST(ServiceSampler, HeavyTailsDominateTheExponential) {
  // Same mean, very different tails: the lognormal (sigma = 1.5) and Pareto
  // (alpha = 2.1) must put visibly more mass far above the mean than the
  // exponential does -- the property that makes p999 interesting.
  constexpr std::size_t kDraws = 100000;
  const double threshold = 10.0 * 0.2;  // 10x the mean.
  auto tail_fraction = [&](ServiceKind kind, double sigma, double alpha) {
    ServiceModel model;
    model.kind = kind;
    model.mean = 0.2;
    model.sigma = sigma;
    model.alpha = alpha;
    const ServiceSampler sampler(model);
    common::Rng rng(7);
    std::size_t over = 0;
    for (std::size_t i = 0; i < kDraws; ++i) {
      if (sampler.sample(rng) > threshold) ++over;
    }
    return static_cast<double>(over) / static_cast<double>(kDraws);
  };
  const double exp_tail = tail_fraction(ServiceKind::kExponential, 1.0, 2.5);
  const double logn_tail = tail_fraction(ServiceKind::kLognormal, 1.5, 2.5);
  const double pareto_tail = tail_fraction(ServiceKind::kPareto, 1.0, 2.1);
  EXPECT_GT(logn_tail, 4.0 * exp_tail);
  EXPECT_GT(pareto_tail, 4.0 * exp_tail);
}

// --- arrival streams --------------------------------------------------------

std::size_t count_arrivals(const StreamSpec& spec, std::uint64_t seed,
                           double horizon, double window) {
  ArrivalStream stream(spec, seed, 0);
  std::vector<Request> out;
  std::size_t n = 0;
  for (double t = 0.0; t < horizon; t += window) {
    out.clear();
    stream.generate(Seconds{t}, Seconds{t + window}, &out);
    n += out.size();
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
      EXPECT_LE(out[i].arrival.value, out[i + 1].arrival.value);
    }
    for (const Request& r : out) {
      EXPECT_GE(r.arrival.value, t);
      EXPECT_LT(r.arrival.value, t + window);
      EXPECT_GT(r.service, 0.0);
    }
  }
  return n;
}

TEST(ArrivalStream, PoissonEmpiricalRateWithinFiveSigma) {
  StreamSpec spec;
  spec.kind = StreamKind::kPoisson;
  spec.rate = 120.0;
  const double horizon = 3600.0;
  const double expected = spec.rate * horizon;
  const double sigma = std::sqrt(expected);
  const auto n = count_arrivals(spec, 42, horizon, 60.0);
  EXPECT_NEAR(static_cast<double>(n), expected, 5.0 * sigma);
}

TEST(ArrivalStream, DiurnalEmpiricalRateMatchesMeanRate) {
  StreamSpec spec;
  spec.kind = StreamKind::kDiurnal;
  spec.rate = 90.0;
  spec.amplitude = 0.7;
  spec.period = Seconds{3600.0};
  // Over whole periods the sinusoid integrates out: mean_rate == rate.
  EXPECT_DOUBLE_EQ(mean_rate(spec), 90.0);
  const double horizon = 4.0 * 3600.0;
  const double expected = mean_rate(spec) * horizon;
  const auto n = count_arrivals(spec, 13, horizon, 60.0);
  EXPECT_NEAR(static_cast<double>(n), expected, 5.0 * std::sqrt(expected));
}

TEST(ArrivalStream, FlashEmpiricalRateMatchesMeanRate) {
  StreamSpec spec;
  spec.kind = StreamKind::kFlash;
  spec.rate = 50.0;
  spec.burst = 8.0;
  spec.on_mean = Seconds{120.0};
  spec.off_mean = Seconds{600.0};
  // mean_rate weighs the on-state by its stationary fraction.
  const double on_frac = 120.0 / (120.0 + 600.0);
  EXPECT_NEAR(mean_rate(spec), 50.0 * (1.0 + on_frac * 7.0), 1e-9);
  const double horizon = 8.0 * 3600.0;
  const double expected = mean_rate(spec) * horizon;
  // The modulating chain adds variance beyond Poisson: at ~12 on/off cycles
  // an 8x burst swings counts by whole-burst quanta, so the band is wider
  // (5 sigma of a Poisson would flake on the chain's own variance).
  const auto n = count_arrivals(spec, 77, horizon, 60.0);
  EXPECT_NEAR(static_cast<double>(n), expected, 0.25 * expected);
}

TEST(ArrivalStream, SameSeedSameSequenceDifferentSeedDiffers) {
  StreamSpec spec;
  spec.kind = StreamKind::kFlash;
  spec.rate = 60.0;
  auto collect = [&](std::uint64_t seed) {
    ArrivalStream stream(spec, seed, 0);
    std::vector<Request> out;
    stream.generate(Seconds{0.0}, Seconds{600.0}, &out);
    return out;
  };
  const auto a = collect(5);
  const auto b = collect(5);
  const auto c = collect(6);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival.value, b[i].arrival.value);
    EXPECT_EQ(a[i].service, b[i].service);
  }
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrival.value != c[i].arrival.value;
  }
  EXPECT_TRUE(differs);
}

TEST(ArrivalStream, WindowingChangesTheDrawOrderButNotTheLaw) {
  // The candidate clock truncates at every window edge and redraws next
  // window -- exact by memorylessness, so a different windowing yields a
  // different *realization* of the same process.  Both windowings must obey
  // the rate law; the bit-level contract is only same-windows -> same-run
  // (SameSeedSameSequence above), which is what the tau-driven engine
  // relies on.
  StreamSpec spec;
  spec.kind = StreamKind::kDiurnal;
  spec.rate = 40.0;
  spec.period = Seconds{1200.0};
  const double horizon = 3600.0;
  const double expected = mean_rate(spec) * horizon;
  const double band = 5.0 * std::sqrt(expected);
  const auto coarse = count_arrivals(spec, 9, horizon, 600.0);
  const auto fine = count_arrivals(spec, 9, horizon, 60.0);
  EXPECT_NEAR(static_cast<double>(coarse), expected, band);
  EXPECT_NEAR(static_cast<double>(fine), expected, band);
}

TEST(RequestEngine, StreamsAreIndependentOfEachOther) {
  // Adding a second stream must not perturb the first (per-stream child
  // RNGs): stream 0's sequence is identical with and without stream 1.
  std::string error;
  const auto solo = RequestWorkloadConfig::parse("poisson:rate=30;seed=21",
                                                 &error);
  const auto duo = RequestWorkloadConfig::parse(
      "poisson:rate=30;flash:rate=90;seed=21", &error);
  ASSERT_TRUE(solo.has_value() && duo.has_value());
  RequestEngine a(*solo);
  RequestEngine b(*duo);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<std::vector<Request>> out_a;
  std::vector<std::vector<Request>> out_b;
  a.generate(Seconds{0.0}, Seconds{300.0}, &out_a);
  b.generate(Seconds{0.0}, Seconds{300.0}, &out_b);
  ASSERT_EQ(out_a.size(), 1U);
  ASSERT_EQ(out_b.size(), 2U);
  ASSERT_EQ(out_a[0].size(), out_b[0].size());
  for (std::size_t i = 0; i < out_a[0].size(); ++i) {
    EXPECT_EQ(out_a[0][i].arrival.value, out_b[0][i].arrival.value);
  }
}

TEST(RequestEngine, MissingTraceFileIsAnError) {
  std::string error;
  const auto cfg = RequestWorkloadConfig::parse(
      "trace:file=/nonexistent/x.trs", &error);
  ASSERT_TRUE(cfg.has_value()) << error;  // The grammar is fine...
  RequestEngine engine(*cfg);
  EXPECT_FALSE(engine.ok());  // ...the open fails at construction.
  EXPECT_FALSE(engine.error().empty());
}

// --- request queue ----------------------------------------------------------

/// Serves the whole of `q` as one queue.
QueueServeStats serve_all(std::vector<Pending>& q, FifoState& st,
                          Seconds t0, Seconds t1, double rate,
                          double sla_seconds, LatencyHistogram* hist) {
  const QueueServeStats stats =
      serve(q, st, t0, t1, rate, sla_seconds, hist);
  q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(stats.completed));
  return stats;
}

TEST(RequestQueue, ExactFifoSojourns) {
  std::vector<Pending> q;
  FifoState st;
  push(q, st, {Seconds{0.0}, 2.0});
  push(q, st, {Seconds{1.0}, 1.0});
  LatencyHistogram hist;
  // Rate 1.0: first completes at 2.0 (sojourn 2), second starts when the
  // server frees at 2.0 and completes at 3.0 (sojourn 2).
  const auto stats =
      serve_all(q, st, Seconds{0.0}, Seconds{10.0}, 1.0, 1.5, &hist);
  EXPECT_EQ(stats.completed, 2U);
  EXPECT_EQ(stats.sla_violations, 2U);  // Both sojourns exceed 1.5 s.
  EXPECT_EQ(q.size(), 0U);
  EXPECT_DOUBLE_EQ(st.backlog, 0.0);
  EXPECT_DOUBLE_EQ(st.ready_at.value, 3.0);
  EXPECT_EQ(hist.count(), 2U);
}

TEST(RequestQueue, PartialWorkCarriesAcrossWindows) {
  std::vector<Pending> q;
  FifoState st;
  push(q, st, {Seconds{0.0}, 5.0});
  LatencyHistogram hist;
  auto stats = serve_all(q, st, Seconds{0.0}, Seconds{2.0}, 1.0, 100.0, &hist);
  EXPECT_EQ(stats.completed, 0U);
  ASSERT_EQ(q.size(), 1U);
  EXPECT_DOUBLE_EQ(q[0].remaining, 3.0);  // The head banked its work.
  EXPECT_DOUBLE_EQ(st.backlog, 3.0);      // 2 of 5 cap-s served.
  // Double the rate: the remaining 3 cap-s take 1.5 s, completing at 3.5.
  stats = serve_all(q, st, Seconds{2.0}, Seconds{4.0}, 2.0, 100.0, &hist);
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_DOUBLE_EQ(st.backlog, 0.0);
  EXPECT_NEAR(hist.quantile(0.5), 3.5, 0.2);  // Sojourn 3.5 s from t = 0.
}

TEST(RequestQueue, ZeroRateHoldsEverything) {
  std::vector<Pending> q;
  FifoState st;
  st.ready_at = Seconds{5.0};
  push(q, st, {Seconds{0.0}, 1.0});
  LatencyHistogram hist;
  const auto stats =
      serve_all(q, st, Seconds{0.0}, Seconds{60.0}, 0.0, 1.0, &hist);
  EXPECT_EQ(stats.completed, 0U);
  EXPECT_EQ(q.size(), 1U);
  EXPECT_DOUBLE_EQ(st.backlog, 1.0);
  EXPECT_DOUBLE_EQ(st.ready_at.value, 5.0);  // No grant, no clock move.
}

TEST(RequestQueue, EmptyQueueServeMovesOnlyTheServerFreeTime) {
  // A queue the driver opened serves every window, empty or not: the serve
  // completes nothing and leaves the backlog (even a rounding residue) as
  // it was, but the server-free time moves to the window's start.
  std::vector<Pending> q;
  FifoState st;
  st.backlog = 1e-17;
  st.ready_at = Seconds{3.0};
  LatencyHistogram hist;
  const auto stats =
      serve_all(q, st, Seconds{60.0}, Seconds{120.0}, 0.5, 1.0, &hist);
  EXPECT_EQ(stats.completed, 0U);
  EXPECT_EQ(st.backlog, 1e-17);
  EXPECT_DOUBLE_EQ(st.ready_at.value, 60.0);
  EXPECT_EQ(hist.count(), 0U);
}

TEST(RequestQueue, PrependKeepsFifoOrderAcrossTheSplice) {
  // The migration-drain handoff: a residue re-joins its VM's queue ahead of
  // that queue's own requests, oldest first, inside a buffer that holds
  // other queues' runs in front of it.
  std::vector<Pending> residue;
  FifoState residue_st;
  push(residue, residue_st, {Seconds{0.0}, 1.0});
  push(residue, residue_st, {Seconds{1.0}, 2.0});
  std::vector<Pending> buf = {{Seconds{-9.0}, 9.0}};  // Another VM's run.
  const std::size_t base = buf.size();
  FifoState st;
  push(buf, st, {Seconds{5.0}, 4.0});
  prepend(buf, base, residue, st);
  ASSERT_EQ(buf.size(), 4U);
  EXPECT_DOUBLE_EQ(buf[0].remaining, 9.0);  // The run in front is untouched.
  EXPECT_DOUBLE_EQ(st.backlog, 7.0);
  // Rate 1 from t = 0: completions at 1, 3 and 9 -- FIFO across the splice.
  std::vector<Pending> q(buf.begin() + static_cast<std::ptrdiff_t>(base),
                         buf.end());
  LatencyHistogram hist;
  auto stats = serve_all(q, st, Seconds{0.0}, Seconds{4.0}, 1.0, 100.0, &hist);
  EXPECT_EQ(stats.completed, 2U);
  EXPECT_EQ(q.size(), 1U);
  EXPECT_DOUBLE_EQ(st.backlog, 4.0);
  stats = serve_all(q, st, Seconds{4.0}, Seconds{10.0}, 1.0, 100.0, &hist);
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_EQ(q.size(), 0U);
  EXPECT_EQ(hist.count(), 3U);
}

// --- latency histogram ------------------------------------------------------

TEST(LatencyHistogram, QuantilesBracketTheRecordedValues) {
  LatencyHistogram h;
  for (int i = 0; i < 900; ++i) h.record(0.01);
  for (int i = 0; i < 90; ++i) h.record(1.0);
  for (int i = 0; i < 10; ++i) h.record(100.0);
  EXPECT_EQ(h.count(), 1000U);
  // Log-scale buckets are ~15 % wide; check band membership, not equality,
  // at ranks that sit strictly inside each population.
  EXPECT_NEAR(h.quantile(0.5), 0.01, 0.01 * 0.2);
  EXPECT_NEAR(h.quantile(0.95), 1.0, 1.0 * 0.2);
  EXPECT_NEAR(h.quantile(0.999), 100.0, 100.0 * 0.2);
}

TEST(LatencyHistogram, UnderAndOverflowStayInTheCount) {
  LatencyHistogram h;
  h.record(1e-7);  // Below kLoSeconds.
  h.record(1e6);   // Above kHiSeconds.
  EXPECT_EQ(h.count(), 2U);
  EXPECT_EQ(h.underflow(), 1U);
  EXPECT_EQ(h.overflow(), 1U);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), LatencyHistogram::kLoSeconds);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), LatencyHistogram::kHiSeconds);
}

/// The binning rule record() must reproduce, as first written: underflow
/// (-1), overflow (kBucketCount) or floor(16 log10(x / kLoSeconds)).
std::ptrdiff_t log10_oracle(double seconds) {
  using H = LatencyHistogram;
  if (!(seconds >= H::kLoSeconds)) return -1;
  if (seconds >= H::kHiSeconds) return H::kBucketCount;
  const double pos = std::log10(seconds / H::kLoSeconds) *
                     static_cast<double>(H::kBucketsPerDecade);
  return static_cast<std::ptrdiff_t>(
      std::clamp(pos, 0.0, static_cast<double>(H::kBucketCount - 1)));
}

/// Where record() put a single value, in log10_oracle's encoding.
std::ptrdiff_t recorded_bucket(double seconds) {
  LatencyHistogram h;
  h.record(seconds);
  if (h.underflow() == 1) return -1;
  if (h.overflow() == 1) return LatencyHistogram::kBucketCount;
  for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    if (h.bucket(i) == 1) return static_cast<std::ptrdiff_t>(i);
  }
  return -2;  // Counted nowhere.
}

TEST(LatencyHistogram, TableBinningMatchesLog10Formula) {
  using H = LatencyHistogram;
  std::size_t checked = 0;
  const auto expect_same = [&checked](double x) {
    ++checked;
    const std::ptrdiff_t want = log10_oracle(x);
    const std::ptrdiff_t got = recorded_bucket(x);
    if (got != want) {
      ADD_FAILURE() << "x=" << std::hexfloat << x << std::defaultfloat
                    << " (" << x << "): bucket " << got << ", formula "
                    << want;
    }
  };
  // Every edge and the 64 representable values on each side of it.
  for (std::size_t k = 0; k <= H::kBucketCount; ++k) {
    const double edge = H::bucket_lower(k);
    double up = edge;
    double down = edge;
    expect_same(edge);
    for (int step = 0; step < 64; ++step) {
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, 0.0);
      expect_same(up);
      expect_same(down);
    }
  }
  // Log-uniform over the range and one decade past each end.
  common::Rng rng(2024);
  for (int i = 0; i < 1'000'000; ++i) {
    expect_same(std::pow(10.0, rng.uniform(-5.0, 5.0)));
  }
  // The special values and the range ends.
  for (const double x :
       {0.0, std::numeric_limits<double>::denorm_min(), -1.0,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), H::kLoSeconds,
        std::nextafter(H::kHiSeconds, 0.0), H::kHiSeconds}) {
    expect_same(x);
  }
  EXPECT_EQ(checked, 129U * 129U + 1'000'000U + 9U);
}

TEST(LatencyHistogram, MergeEqualsUnionAndDigestTracksContent) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  common::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(1e-3, 50.0);
    ((i % 2 == 0) ? a : b).record(v);
    both.record(v);
  }
  const std::uint64_t digest_a = a.digest();
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.digest(), both.digest());
  EXPECT_NE(a.digest(), digest_a);  // Content changed, digest changed.
  EXPECT_DOUBLE_EQ(a.quantile(0.5), both.quantile(0.5));
}

}  // namespace
}  // namespace eclb::workload::engine
