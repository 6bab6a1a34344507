#include "fault/fault_plan.h"

#include <gtest/gtest.h>

namespace eclb::fault {
namespace {

using common::Seconds;
using common::ServerId;

TEST(FaultPlan, DefaultPlanIsEmpty) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.events().empty());
  EXPECT_DOUBLE_EQ(plan.params().heartbeat_period.value, 5.0);
  EXPECT_EQ(plan.params().failover_after_missed, 3U);
  // The retry policy defaults are unset: they defer to ClusterConfig::retry.
  EXPECT_FALSE(plan.params().max_retries.has_value());
  EXPECT_FALSE(plan.params().retry_backoff_base.has_value());
  EXPECT_FALSE(plan.params().retry_backoff_cap.has_value());
}

TEST(FaultPlan, BuildersAppendInOrder) {
  FaultPlan plan;
  plan.crash(Seconds{10.0}, ServerId{3})
      .recover(Seconds{50.0}, ServerId{3})
      .crash_leader(Seconds{100.0})
      .link_loss(Seconds{0.0}, 0.05)
      .link_delay(Seconds{5.0}, Seconds{0.2})
      .migration_failure_rate(Seconds{1.0}, 0.1)
      .derate(Seconds{20.0}, ServerId{7}, 0.5);
  ASSERT_EQ(plan.events().size(), 7U);
  EXPECT_FALSE(plan.empty());

  const auto events = plan.events();
  EXPECT_EQ(events[0].kind, FaultKind::kServerCrash);
  EXPECT_DOUBLE_EQ(events[0].at.value, 10.0);
  EXPECT_EQ(events[0].server, ServerId{3});
  EXPECT_EQ(events[1].kind, FaultKind::kServerRecover);
  EXPECT_EQ(events[2].kind, FaultKind::kLeaderCrash);
  EXPECT_EQ(events[3].kind, FaultKind::kLinkLoss);
  EXPECT_DOUBLE_EQ(events[3].value, 0.05);
  EXPECT_EQ(events[4].kind, FaultKind::kLinkDelay);
  EXPECT_DOUBLE_EQ(events[4].value, 0.2);
  EXPECT_EQ(events[5].kind, FaultKind::kMigrationFailureRate);
  EXPECT_DOUBLE_EQ(events[5].value, 0.1);
  EXPECT_EQ(events[6].kind, FaultKind::kCapacityDerate);
  EXPECT_EQ(events[6].server, ServerId{7});
  EXPECT_DOUBLE_EQ(events[6].value, 0.5);
}

TEST(FaultPlan, KindNames) {
  EXPECT_EQ(to_string(FaultKind::kServerCrash), "crash");
  EXPECT_EQ(to_string(FaultKind::kServerRecover), "recover");
  EXPECT_EQ(to_string(FaultKind::kLeaderCrash), "leader");
  EXPECT_EQ(to_string(FaultKind::kLinkLoss), "loss");
  EXPECT_EQ(to_string(FaultKind::kLinkDelay), "delay");
  EXPECT_EQ(to_string(FaultKind::kMigrationFailureRate), "migfail");
  EXPECT_EQ(to_string(FaultKind::kCapacityDerate), "derate");
  EXPECT_EQ(to_string(FaultKind::kPartitionStart), "part");
  EXPECT_EQ(to_string(FaultKind::kPartitionHeal), "heal");
}

TEST(FaultPlanParse, EmptySpecYieldsEmptyPlan) {
  const auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
  // Stray separators and whitespace are tolerated too.
  EXPECT_TRUE(FaultPlan::parse(" ; ;; ")->empty());
}

TEST(FaultPlanParse, FullGrammar) {
  const auto plan = FaultPlan::parse(
      "crash@600:s=3; recover@1200:s=3; leader@900; loss@0:p=0.05;"
      "delay@10:d=0.25; migfail@5:p=0.1; derate@20:s=7,c=0.5");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events().size(), 7U);
  const auto events = plan->events();
  EXPECT_EQ(events[0].kind, FaultKind::kServerCrash);
  EXPECT_DOUBLE_EQ(events[0].at.value, 600.0);
  EXPECT_EQ(events[0].server, ServerId{3});
  EXPECT_EQ(events[1].kind, FaultKind::kServerRecover);
  EXPECT_EQ(events[2].kind, FaultKind::kLeaderCrash);
  EXPECT_DOUBLE_EQ(events[2].at.value, 900.0);
  EXPECT_EQ(events[3].kind, FaultKind::kLinkLoss);
  EXPECT_DOUBLE_EQ(events[3].value, 0.05);
  EXPECT_EQ(events[4].kind, FaultKind::kLinkDelay);
  EXPECT_DOUBLE_EQ(events[4].value, 0.25);
  EXPECT_EQ(events[5].kind, FaultKind::kMigrationFailureRate);
  EXPECT_EQ(events[6].kind, FaultKind::kCapacityDerate);
  EXPECT_EQ(events[6].server, ServerId{7});
  EXPECT_DOUBLE_EQ(events[6].value, 0.5);
}

TEST(FaultPlanParse, PlanParameters) {
  const auto plan = FaultPlan::parse(
      "seed=99; hb=2.5; miss=5; retries=7; backoff=0.125; cap=2");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed(), 99U);
  EXPECT_DOUBLE_EQ(plan->params().heartbeat_period.value, 2.5);
  EXPECT_EQ(plan->params().failover_after_missed, 5U);
  ASSERT_TRUE(plan->params().max_retries.has_value());
  EXPECT_EQ(*plan->params().max_retries, 7U);
  ASSERT_TRUE(plan->params().retry_backoff_base.has_value());
  EXPECT_DOUBLE_EQ(plan->params().retry_backoff_base->value, 0.125);
  ASSERT_TRUE(plan->params().retry_backoff_cap.has_value());
  EXPECT_DOUBLE_EQ(plan->params().retry_backoff_cap->value, 2.0);
  // Parameters alone do not make the plan non-empty.
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlanParse, ProtocolParametersAreBounded) {
  // Heartbeats and retries are kernel events: hb=1e-9 and an unbounded
  // retry chain at a nanosecond backoff never finished.  The bounds
  // themselves are accepted.
  const auto edge =
      FaultPlan::parse("hb=0.001; retries=64; backoff=0.001; cap=0.001");
  ASSERT_TRUE(edge.has_value());
  EXPECT_DOUBLE_EQ(edge->params().heartbeat_period.value, 0.001);
  EXPECT_EQ(*edge->params().max_retries, 64U);
  EXPECT_DOUBLE_EQ(edge->params().retry_backoff_base->value, 0.001);
  EXPECT_DOUBLE_EQ(edge->params().retry_backoff_cap->value, 0.001);
  // hb=0 switches the heartbeat off; retries=0 never re-sends.
  const auto off = FaultPlan::parse("hb=0; retries=0");
  ASSERT_TRUE(off.has_value());
  EXPECT_DOUBLE_EQ(off->params().heartbeat_period.value, 0.0);
  EXPECT_EQ(*off->params().max_retries, 0U);

  const struct {
    const char* spec;
    const char* diagnostic;
  } rejected[] = {
      {"hb=1e-9", "hb out of range in 'hb=1e-9' at offset 0; expected 0 (no "
                  "heartbeat) or a period of at least 0.001 seconds"},
      {"hb=0.0009", "hb out of range"},
      {"hb=-1", "hb out of range"},
      {"retries=65", "retries out of range in 'retries=65' at offset 0; "
                     "expected an integer in [0, 64]"},
      {"retries=100000000", "retries out of range"},
      {"backoff=1e-9", "backoff out of range in 'backoff=1e-9' at offset 0; "
                       "expected at least 0.001 seconds"},
      {"backoff=0", "backoff out of range"},
      {"cap=0.0009", "cap out of range"},
      {"seed=1; cap=-2", "cap out of range in 'cap=-2' at offset 8"},
  };
  for (const auto& r : rejected) {
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(r.spec, &error).has_value()) << r.spec;
    EXPECT_EQ(error.rfind("faults: ", 0), 0U) << error;
    EXPECT_NE(error.find(r.diagnostic), std::string::npos)
        << r.spec << " -> " << error;
  }
}

TEST(FaultPlanParse, PartitionGrammar) {
  const auto plan = FaultPlan::parse("part@100:g=0-4|5-9,heal=300");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events().size(), 2U);
  const auto& split = plan->events()[0];
  EXPECT_EQ(split.kind, FaultKind::kPartitionStart);
  EXPECT_DOUBLE_EQ(split.at.value, 100.0);
  // Each range is kept as one run, never expanded by the parser.
  ASSERT_EQ(split.groups.size(), 2U);
  EXPECT_EQ(split.groups[0],
            (std::vector<ServerRange>{{ServerId{0}, ServerId{4}}}));
  EXPECT_EQ(split.groups[1],
            (std::vector<ServerRange>{{ServerId{5}, ServerId{9}}}));
  const auto& heal = plan->events()[1];
  EXPECT_EQ(heal.kind, FaultKind::kPartitionHeal);
  EXPECT_DOUBLE_EQ(heal.at.value, 300.0);
}

TEST(FaultPlanParse, PartitionMembersMixRangesAndSingles) {
  const auto plan = FaultPlan::parse("part@10:g=0+2-3|1+4; heal@50");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events().size(), 2U);
  const auto& split = plan->events()[0];
  ASSERT_EQ(split.groups.size(), 2U);
  EXPECT_EQ(split.groups[0],
            (std::vector<ServerRange>{{ServerId{0}, ServerId{0}},
                                      {ServerId{2}, ServerId{3}}}));
  EXPECT_EQ(split.groups[1],
            (std::vector<ServerRange>{{ServerId{1}, ServerId{1}},
                                      {ServerId{4}, ServerId{4}}}));
  EXPECT_EQ(plan->events()[1].kind, FaultKind::kPartitionHeal);
}

TEST(FaultPlanParse, PartitionRejectsBadGroupSpecs) {
  std::string error;
  // One group is not a partition.
  EXPECT_FALSE(FaultPlan::parse("part@10:g=0-9", &error).has_value());
  // Overlapping groups.
  EXPECT_FALSE(FaultPlan::parse("part@10:g=0-4|4-9", &error).has_value());
  // Inverted range.
  EXPECT_FALSE(FaultPlan::parse("part@10:g=4-0|5-9", &error).has_value());
  // Empty group.
  EXPECT_FALSE(FaultPlan::parse("part@10:g=|5-9", &error).has_value());
  // Heal must follow the split.
  EXPECT_FALSE(FaultPlan::parse("part@10:g=0-4|5-9,heal=5", &error).has_value());
  // heal takes no arguments.
  EXPECT_FALSE(FaultPlan::parse("heal@10:s=1", &error).has_value());
}

TEST(FaultPlanParse, DiagnosticsCarryOffsetAndGrammar) {
  std::string error;
  // The offset points at the offending item, not the start of the spec.
  ASSERT_FALSE(FaultPlan::parse("crash@5:s=1; explode@7", &error).has_value());
  EXPECT_NE(error.find("explode@7"), std::string::npos);
  EXPECT_NE(error.find("at offset 13"), std::string::npos);
  EXPECT_NE(error.find("part@T:g=GROUPS"), std::string::npos) << error;

  ASSERT_FALSE(FaultPlan::parse("hb=2.5; bogus=1", &error).has_value());
  EXPECT_NE(error.find("at offset 8"), std::string::npos);
  EXPECT_NE(error.find("cap=SECS"), std::string::npos) << error;

  ASSERT_FALSE(FaultPlan::parse("loss@0:p=0.1; crash@5:q=1", &error).has_value());
  EXPECT_NE(error.find("at offset 14"), std::string::npos);
  EXPECT_NE(error.find("bad argument 'q'"), std::string::npos) << error;
}

TEST(FaultPlanParse, RejectsMalformedItems) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("explode@5", &error).has_value());
  EXPECT_NE(error.find("explode@5"), std::string::npos);

  EXPECT_FALSE(FaultPlan::parse("crash@abc:s=1", &error).has_value());
  EXPECT_NE(error.find("bad time"), std::string::npos);

  EXPECT_FALSE(FaultPlan::parse("crash@-5:s=1", &error).has_value());

  // crash needs its target server.
  EXPECT_FALSE(FaultPlan::parse("crash@5", &error).has_value());

  // leader takes no arguments.
  EXPECT_FALSE(FaultPlan::parse("leader@5:s=1", &error).has_value());

  // Probabilities outside [0, 1] are rejected.
  EXPECT_FALSE(FaultPlan::parse("loss@0:p=1.5", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("loss@0:p=-0.1", &error).has_value());

  // Capacity must be in (0, 1].
  EXPECT_FALSE(FaultPlan::parse("derate@0:s=1,c=0", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("derate@0:s=1,c=1.5", &error).has_value());

  // Unknown argument key.
  EXPECT_FALSE(FaultPlan::parse("crash@5:q=1", &error).has_value());
  EXPECT_NE(error.find("bad argument"), std::string::npos);

  // Dangling parameter forms.
  EXPECT_FALSE(FaultPlan::parse("seed", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("=5", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("hb=-1", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("miss=0", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("backoff=0", &error).has_value());
}

TEST(FaultPlanParse, ErrorPointerIsOptional) {
  EXPECT_FALSE(FaultPlan::parse("bogus@x", nullptr).has_value());
}

TEST(FaultPlanParse, RoundTripsThroughToSpec) {
  const auto original = FaultPlan::parse(
      "seed=1234; hb=3; miss=2; retries=6; backoff=0.25; cap=4;"
      "crash@600:s=3; leader@900; loss@0:p=0.05; delay@10:d=0.2;"
      "migfail@5:p=0.1; derate@20:s=7,c=0.5; recover@1200:s=3;"
      "part@100:g=0-4|5+7-9,heal=300");
  ASSERT_TRUE(original.has_value());
  const std::string spec = original->to_spec();
  const auto reparsed = FaultPlan::parse(spec);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->to_spec(), spec);

  EXPECT_EQ(reparsed->seed(), original->seed());
  ASSERT_EQ(reparsed->events().size(), original->events().size());
  for (std::size_t i = 0; i < original->events().size(); ++i) {
    const auto& a = original->events()[i];
    const auto& b = reparsed->events()[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_DOUBLE_EQ(a.at.value, b.at.value) << i;
    EXPECT_EQ(a.server, b.server) << i;
    EXPECT_DOUBLE_EQ(a.value, b.value) << i;
  }
}

TEST(FaultPlanParse, RejectsNonFiniteNumbersAndWrappingIds) {
  // Times and values read through the shared finite-number rule; a NaN time
  // used to pass `at < 0` and abort the run in the event kernel.  Server ids
  // are 32-bit: 2^32 used to wrap to server 0, and 2^32-1 is the invalid id.
  for (const char* spec : {
           "crash@nan:s=1", "crash@inf:s=1", "crash@1e309:s=1",
           "loss@0:p=nan", "delay@0:d=inf", "derate@0:s=1,c=nan",
           "part@0:g=0|1,heal=inf", "hb=nan", "backoff=inf", "cap=-nan",
           "seed=18446744073709551616", "retries=-1",
           "crash@0:s=4294967295", "crash@0:s=4294967296",
           "recover@0:s=18446744073709551616",
           "part@0:g=0-4|5-4294967295", "part@0:g=0-4|4294967296",
       }) {
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(spec, &error).has_value()) << spec;
    EXPECT_EQ(error.rfind("faults: ", 0), 0U) << spec << " -> " << error;
    EXPECT_NE(error.find("at offset 0"), std::string::npos) << error;
  }
  EXPECT_TRUE(FaultPlan::parse("crash@0:s=4294967294").has_value());
}

TEST(FaultPlanParse, PartitionRangesAreNeverExpanded) {
  // The widest legal split parses at once: two runs, not 2^32 ids.
  const auto plan = FaultPlan::parse("part@0:g=0-4294967293|4294967294");
  ASSERT_TRUE(plan.has_value());
  const auto& split = plan->events()[0];
  EXPECT_EQ(split.groups[0],
            (std::vector<ServerRange>{{ServerId{0}, ServerId{4294967293}}}));
  EXPECT_EQ(split.groups[1].size(), 1U);
  // Duplicates inside one group still count as overlap.
  EXPECT_FALSE(FaultPlan::parse("part@0:g=0+0|1").has_value());
  EXPECT_FALSE(FaultPlan::parse("part@0:g=0-9|3-4294967294").has_value());
}

TEST(FaultPlan, CheckServersNamesTheFirstItemOutOfRange) {
  const auto plan = FaultPlan::parse(
      "crash@0:s=9; loss@0:p=0.5; recover@5:s=50; derate@9:s=99,c=0.5");
  ASSERT_TRUE(plan.has_value());
  std::string error;
  EXPECT_FALSE(plan->check_servers(10, &error));
  EXPECT_EQ(error,
            "faults: server 50 out of range in 'recover@5:s=50'; expected ids "
            "below 10, the servers per shard");
  EXPECT_FALSE(plan->check_servers(51, &error));
  EXPECT_NE(error.find("'derate@9:s=99,c=0.5'"), std::string::npos) << error;
  EXPECT_TRUE(plan->check_servers(100, &error));
  EXPECT_TRUE(plan->check_servers(100));

  const auto part = FaultPlan::parse("part@0:g=0-4|5-1000000000");
  ASSERT_TRUE(part.has_value());
  EXPECT_FALSE(part->check_servers(10, &error));
  EXPECT_NE(error.find("server 1000000000 out of range in "
                       "'part@0:g=0-4|5-1000000000'"),
            std::string::npos)
      << error;
  // Leader, link and heal items name no server.
  EXPECT_TRUE(FaultPlan::parse("leader@5;loss@0:p=1;delay@0:d=1;heal@9")
                  ->check_servers(1));
}

TEST(FaultPlanParse, ToSpecKeepsEveryDigit) {
  // Six significant digits used to print heal=100.0000002 as 100, which no
  // longer follows the split at 100.0000001 and does not re-parse.
  const auto plan = FaultPlan::parse(
      "crash@100.0000001:s=1; part@100.0000001:g=0|1,heal=100.0000002;"
      "loss@0:p=0.99999999");
  ASSERT_TRUE(plan.has_value());
  const auto again = FaultPlan::parse(plan->to_spec());
  ASSERT_TRUE(again.has_value()) << plan->to_spec();
  EXPECT_EQ(again->to_spec(), plan->to_spec());
  EXPECT_EQ(again->events()[2].at.value, 100.0000002);
  EXPECT_EQ(again->events()[3].value, 0.99999999);
}

TEST(FaultPlanParse, LastParameterWins) {
  const auto plan = FaultPlan::parse("seed=1;seed=2");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed(), 2U);
}

TEST(FaultPlan, SetSeedChains) {
  FaultPlan plan;
  EXPECT_EQ(plan.set_seed(77).seed(), 77U);
}

}  // namespace
}  // namespace eclb::fault
