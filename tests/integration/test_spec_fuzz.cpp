// The shared spec reader under mutation, and the spec corpus pinned.
//
// SpecCorpusPinned checks that every documented spec still parses to the
// to_spec() it had before the grammars moved onto common/spec_reader.
// SpecFuzz is a deterministic in-repo mutator (no libFuzzer offline): from a
// fixed seed it applies bit flips, byte and token insertions, deletions,
// truncations, splices and edge-value substitutions to the corpus, and
// feeds a fixed number of mutants to FaultPlan::parse,
// RequestWorkloadConfig::parse and Flags.  It checks that parsing never
// aborts (the sanitizer build turns UB into a failure), that every
// rejection carries a diagnostic, and that every accepted spec's values are
// finite and its to_spec() is a fixed point of parse -> to_spec.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "fault/fault_plan.h"
#include "support/spec_corpus.h"
#include "workload/engine/spec.h"

namespace eclb {
namespace {

using fault::FaultPlan;
using workload::engine::RequestWorkloadConfig;

// to_spec() of each corpus spec, captured before the reader refactor.
constexpr std::string_view kFaultToSpec[] = {
    "seed=9;hb=5;miss=3;crash@600:s=3;recover@1800:s=3;loss@0:p=0.05",
    "seed=1592654359;hb=5;miss=3;crash@600:s=5;recover@1800:s=5",
    "seed=9;hb=5;miss=3;leader@1200;crash@600:s=5;recover@1800:s=5"
    ";loss@0:p=0.05",
    "seed=9;hb=5;miss=3;leader@1200;loss@0:p=0.05;crash@600:s=3",
    "seed=1592654359;hb=5;miss=3;part@600:g=0-49|50-99;heal@1800",
    "seed=1592654359;hb=5;miss=3;part@120:g=0-9|10-19;heal@400",
    "seed=9;hb=5;miss=3;leader@1200;loss@0:p=0.05;crash@600:s=3"
    ";migfail@0:p=0.1;part@600:g=0-49|50-199;heal@1800",
    "seed=9;hb=5;miss=3;leader@1200;loss@0:p=0.05;crash@600:s=3"
    ";migfail@0:p=0.1;part@600:g=0-24|25-49;heal@1800",
    "seed=1592654359;hb=5;miss=3;leader@1200;crash@600:s=3"
    ";crash@900:s=701;recover@2400:s=3;loss@0:p=0.05;migfail@0:p=0.1"
    ";part@1800:g=0-799|800-999;heal@2400",
    "seed=1234;hb=3;miss=2;retries=6;backoff=0.25;cap=4;delay@10:d=0.2"
    ";derate@20:s=7,c=0.5;part@10:g=0+2-3|1+4;heal@50",
    "seed=1592654359;hb=5;miss=3;part@100:g=0-9|12+10-11;heal@300"
    ";loss@1000:p=1",
};

constexpr std::string_view kRequestToSpec[] = {
    "seed=7;util=0.7;poisson:rate=200,service=lognormal,mean=0.2,sigma=1"
    ",sla=0.5;flash:rate=50,burst=8,on=120,off=1200,service=lognormal"
    ",mean=0.2,sigma=1,sla=0.5",
    "seed=7;util=0.7;poisson:rate=120,service=lognormal,mean=0.2,sigma=1"
    ",sla=90;flash:rate=30,burst=8,on=120,off=1200,service=lognormal"
    ",mean=0.2,sigma=1,sla=0.5",
    "seed=9;util=0.7;flash:rate=250,burst=8,on=120,off=480"
    ",service=lognormal,mean=0.2,sigma=1,sla=30",
    "seed=1;util=0.7;trace:file=FILE,scale=1,service=lognormal,mean=0.2"
    ",sigma=1,sla=0.5",
    "seed=7;util=0.7;poisson:rate=40,service=lognormal,mean=0.2,sigma=1"
    ",sla=0.5",
    "seed=1;util=0.7;diurnal:rate=60,amp=0.5,period=86400"
    ",service=lognormal,mean=0.2,sigma=1,sla=0.5",
    "seed=11;util=0.7;flash:rate=50,burst=10,on=120,off=1200"
    ",service=lognormal,mean=0.2,sigma=1,sla=0.5",
    "seed=1;util=0.7;poisson:rate=40,service=lognormal,mean=0.2,sigma=1"
    ",sla=0.5",
    "seed=7;util=0.7;poisson:rate=400,service=lognormal,mean=0.2,sigma=1"
    ",sla=0.5;flash:rate=100,burst=8,on=120,off=1200,service=lognormal"
    ",mean=0.2,sigma=1,sla=0.5",
    "seed=7;util=0.7;poisson:rate=800,service=lognormal,mean=0.2,sigma=1"
    ",sla=0.5;flash:rate=200,burst=8,on=120,off=1200,service=lognormal"
    ",mean=0.2,sigma=1,sla=0.5",
    "seed=5;util=0.7;poisson:rate=48,service=lognormal,mean=0.2,sigma=1"
    ",sla=90",
    "seed=5;util=0.7;diurnal:rate=48,amp=0.7,period=1200"
    ",service=lognormal,mean=0.2,sigma=1,sla=90",
    "seed=5;util=0.7;flash:rate=48,burst=6,on=120,off=600"
    ",service=lognormal,mean=0.2,sigma=1.2,sla=90",
    "seed=9;util=0.7;admit=tail-drop;cap=48;drain=2;flash:rate=100"
    ",burst=8,on=120,off=480,service=lognormal,mean=0.2,sigma=1.2,sla=30",
    "seed=9;util=0.7;admit=deadline-shed;flash:rate=100,burst=8,on=120"
    ",off=480,service=lognormal,mean=0.2,sigma=1.2,sla=30",
    "seed=17;util=0.7;poisson:rate=400,service=lognormal,mean=0.2,sigma=1"
    ",sla=0.5;diurnal:rate=300,amp=0.6,period=3600,service=lognormal"
    ",mean=0.2,sigma=1,sla=0.5;flash:rate=200,burst=6,on=120,off=600"
    ",service=lognormal,mean=0.2,sigma=1,sla=0.5",
    "seed=9;util=0.7;flash:rate=20,burst=10,on=60,off=300"
    ",service=lognormal,mean=0.2,sigma=1,sla=30",
    "seed=1;util=0.7;poisson:rate=2000,service=lognormal,mean=0.2,sigma=1"
    ",sla=0.5;flash:rate=500,burst=8,on=120,off=1200,service=lognormal"
    ",mean=0.2,sigma=1,sla=0.5",
    "seed=11;util=0.5;poisson:rate=200,service=pareto,mean=0.1,alpha=2.2"
    ",sla=2;flash:rate=40,burst=6,on=90,off=700,service=lognormal"
    ",mean=0.2,sigma=1,sla=30",
    "seed=3;util=0.6;diurnal:rate=80,amp=0.4,period=7200"
    ",service=lognormal,mean=0.2,sigma=1,sla=0.5;trace:file=/tmp/x.trs"
    ",scale=2,service=lognormal,mean=0.2,sigma=1,sla=0.5",
    "seed=1;util=0.7;admit=tail-drop;cap=4294967295;drain=4294967295"
    ";poisson:rate=5,service=lognormal,mean=0.2,sigma=0.5,sla=0.5",
    "seed=1;util=0.7;admit=deadline-shed;budget=2.5;poisson:rate=5"
    ",service=exp,mean=0.2,sla=0.5",
    "seed=1;util=0.7;flash:rate=5,burst=1000,on=0.001,off=0.001"
    ",service=lognormal,mean=0.2,sigma=1,sla=0.5",
};

static_assert(std::size(kFaultToSpec) == std::size(test::kFaultCorpus));
static_assert(std::size(kRequestToSpec) == std::size(test::kRequestCorpus));

TEST(SpecCorpusPinned, FaultSpecsKeepTheirToSpec) {
  for (std::size_t i = 0; i < std::size(test::kFaultCorpus); ++i) {
    std::string error;
    const auto plan = FaultPlan::parse(test::kFaultCorpus[i], &error);
    ASSERT_TRUE(plan.has_value()) << test::kFaultCorpus[i] << ": " << error;
    EXPECT_EQ(plan->to_spec(), kFaultToSpec[i]);
  }
}

TEST(SpecCorpusPinned, RequestSpecsKeepTheirToSpec) {
  for (std::size_t i = 0; i < std::size(test::kRequestCorpus); ++i) {
    std::string error;
    const auto cfg =
        RequestWorkloadConfig::parse(test::kRequestCorpus[i], &error);
    ASSERT_TRUE(cfg.has_value()) << test::kRequestCorpus[i] << ": " << error;
    EXPECT_EQ(cfg->to_spec(), kRequestToSpec[i]);
  }
}

/// Seeded mutator over one corpus.  std::mt19937_64's sequence is fixed by
/// the standard, and only its raw output is used, so every platform fuzzes
/// the same mutants.
class Mutator {
 public:
  Mutator(std::uint64_t seed, std::vector<std::string_view> corpus)
      : rng_(seed), corpus_(std::move(corpus)) {}

  std::string next() {
    std::string s(pick(corpus_));
    const std::size_t ops = 1 + below(4);
    for (std::size_t i = 0; i < ops; ++i) mutate(&s);
    return s;
  }

 private:
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }
  template <class C>
  std::string_view pick(const C& c) {
    return c[below(std::size(c))];
  }

  void mutate(std::string* s) {
    // Tokens the grammars care about, and values at or past their limits.
    static constexpr std::string_view kTokens[] = {
        ";", ":", ",", "=", "@", "|", "+", "-", ".", "e", " ", "\t", "\r",
        "inf", "-inf", "nan", "1e309", "1e-300", "0", "-0", "0x1p3",
        "4294967294", "4294967295", "4294967296", "18446744073709551615",
        "18446744073709551616", "9223372036854775808", "1000", "1000.5",
        "0.0009", "0.001", "64", "65", "0.9999999", "1e300", "1e6",
        "1000000.0001", "10000", "10000.000001", "s=", "g=", "heal=",
        "burst=", "rate=", "mean=", "amp=", "cap=", "drain=", "hb=",
        "retries=", "backoff=", "--", "--x", "-"};
    static constexpr std::string_view kNumbers[] = {
        "inf", "nan", "1e309", "-0", "0", "0x1p3", "1e-300", "0.0009",
        "0.001", "64", "65", "0.9999999", "1.0000001", "100.0000001", "999.99999", "1000.0000001",
        "1e6", "1000000.0001", "1e9", "10000", "10000.000001",
        "4294967294", "4294967295", "4294967296", "18446744073709551616"};
    const std::size_t pos = below(s->size() + 1);
    switch (below(8)) {
      case 0:  // flip one bit
        if (!s->empty()) {
          (*s)[below(s->size())] ^= static_cast<char>(1U << below(8));
        }
        break;
      case 1:  // overwrite one byte with any byte
        if (!s->empty()) (*s)[below(s->size())] = static_cast<char>(below(256));
        break;
      case 2:  // insert a token
        s->insert(pos, pick(kTokens));
        break;
      case 3:  // delete a range
        s->erase(pos, below(8) + 1);
        break;
      case 4:  // truncate
        s->resize(pos);
        break;
      case 5: {  // splice: this prefix + another entry's suffix
        const std::string_view other = pick(corpus_);
        *s = s->substr(0, pos) +
             std::string(other.substr(below(other.size() + 1)));
        break;
      }
      case 6:  // duplicate a range in place
        s->insert(pos, s->substr(pos, below(12) + 1));
        break;
      case 7: {  // replace the value after a "=", "@" or " " with an edge one
        const std::size_t at = s->find_first_of("=@ ", pos);
        if (at == std::string::npos) break;
        const std::size_t end = s->find_first_of(";,:| ", at + 1);
        s->replace(at + 1, end == std::string::npos ? end : end - at - 1,
                   pick(kNumbers));
        break;
      }
    }
  }

  std::mt19937_64 rng_;
  std::vector<std::string_view> corpus_;
};

// Mutants per grammar: a few seconds under ASan, well under one otherwise.
constexpr int kMutants = 100000;

template <std::size_t N>
std::vector<std::string_view> corpus_of(const std::string_view (&specs)[N]) {
  return {specs, specs + N};
}

TEST(SpecFuzz, FaultPlanRejectsWithADiagnosticOrRoundTrips) {
  Mutator mutator(0xFA17'5EEDULL, corpus_of(test::kFaultCorpus));
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string spec = mutator.next();
    std::string error;
    const auto plan = FaultPlan::parse(spec, &error);
    if (!plan.has_value()) {
      ASSERT_EQ(error.rfind("faults: ", 0), 0U) << spec << " -> " << error;
      ASSERT_GT(error.size(), 8U) << spec;
      continue;
    }
    ++accepted;
    for (const auto& e : plan->events()) {
      ASSERT_TRUE(std::isfinite(e.at.value) && std::isfinite(e.value)) << spec;
    }
    // The protocol parameters stay inside their bounds: a smaller period or
    // backoff, or a longer retry chain, would run without end.
    const fault::FaultPlanParams& params = plan->params();
    const double hb = params.heartbeat_period.value;
    ASSERT_TRUE(hb == 0.0 || (hb >= 0.001 && std::isfinite(hb))) << spec;
    ASSERT_LE(params.max_retries.value_or(0), 64U) << spec;
    ASSERT_GE(params.retry_backoff_base.value_or(common::Seconds{1}).value,
              0.001)
        << spec;
    ASSERT_GE(params.retry_backoff_cap.value_or(common::Seconds{1}).value,
              0.001)
        << spec;
    const std::string once = plan->to_spec();
    const auto again = FaultPlan::parse(once, &error);
    ASSERT_TRUE(again.has_value()) << spec << " -> " << once << ": " << error;
    ASSERT_EQ(again->to_spec(), once) << spec;
    // The range check never expands a partition, whatever ids it names.
    if (!plan->check_servers(1000, &error)) {
      ASSERT_FALSE(error.empty());
    }
  }
  // The mutants must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, kMutants / 100);
  EXPECT_LT(accepted, kMutants - kMutants / 100);
}

TEST(SpecFuzz, RequestSpecRejectsWithADiagnosticOrRoundTrips) {
  Mutator mutator(0x5EC5'5EEDULL, corpus_of(test::kRequestCorpus));
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string spec = mutator.next();
    std::string error;
    const auto cfg = RequestWorkloadConfig::parse(spec, &error);
    if (!cfg.has_value()) {
      ASSERT_EQ(error.rfind("requests: ", 0), 0U) << spec << " -> " << error;
      ASSERT_GT(error.size(), 10U) << spec;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(std::isfinite(cfg->target_utilization) &&
                std::isfinite(cfg->admission_budget_seconds))
        << spec;
    for (const auto& st : cfg->streams) {
      for (const double v : {st.rate, st.amplitude, st.period.value, st.burst,
                             st.on_mean.value, st.off_mean.value,
                             st.trace_scale, st.service.mean,
                             st.service.sigma, st.service.alpha,
                             st.sla_seconds}) {
        ASSERT_TRUE(std::isfinite(v)) << spec;
      }
      // A larger peak rate ran out of memory; a larger mean only fills the
      // histogram's overflow.
      ASSERT_LE(workload::engine::peak_rate(st), 1e6) << spec;
      ASSERT_LE(st.service.mean, 1e4) << spec;
    }
    const std::string once = cfg->to_spec();
    const auto again = RequestWorkloadConfig::parse(once, &error);
    ASSERT_TRUE(again.has_value()) << spec << " -> " << once << ": " << error;
    ASSERT_EQ(again->to_spec(), once) << spec;
  }
  EXPECT_GT(accepted, kMutants / 100);
  EXPECT_LT(accepted, kMutants - kMutants / 100);
}

TEST(SpecFuzz, FlagsReportEveryMalformedNumber) {
  Mutator mutator(0xF1A6'5EEDULL, corpus_of(test::kFlagCorpus));
  int errors = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string line = mutator.next();
    std::vector<std::string> tokens{"prog"};
    std::size_t start = 0;
    while (start <= line.size()) {
      const std::size_t space = std::min(line.find(' ', start), line.size());
      tokens.push_back(line.substr(start, space - start));
      start = space + 1;
    }
    std::vector<const char*> argv;
    for (const auto& t : tokens) argv.push_back(t.c_str());
    auto flags =
        common::Flags::parse(static_cast<int>(argv.size()), argv.data());
    for (const auto& name : flags.names()) {
      (void)flags.get(name);
      (void)flags.get_bool(name);
      (void)flags.get_int(name, 0);
      // A value get_double() does not report must be finite.
      const std::size_t reported = flags.errors().size();
      const double d = flags.get_double(name, 0.0);
      if (flags.errors().size() == reported) {
        ASSERT_TRUE(std::isfinite(d)) << line;
      }
    }
    for (const auto& err : flags.errors()) {
      ASSERT_EQ(err.rfind("--", 0), 0U) << line << " -> " << err;
      ASSERT_NE(err.find(": expected "), std::string::npos) << err;
    }
    errors += static_cast<int>(!flags.errors().empty());
  }
  EXPECT_GT(errors, 0);
}

}  // namespace
}  // namespace eclb
