#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace eclb::workload {
namespace {

using common::Seconds;

TEST(TraceIo, SaveFormat) {
  const Trace t(Seconds{60.0}, {1.0, 2.5, 3.0});
  std::ostringstream out;
  save_trace(out, t);
  EXPECT_EQ(out.str(), "time_s,demand\n0,1\n60,2.5\n120,3\n");
}

TEST(TraceIo, RoundTrip) {
  const Trace original(Seconds{30.0}, {5.0, 7.25, 6.125, 8.0});
  std::ostringstream out;
  save_trace(out, original);
  std::istringstream in(out.str());
  const auto loaded = load_trace(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->dt().value, 30.0);
  ASSERT_EQ(loaded->size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(loaded->at(i), original.at(i));
  }
}

TEST(TraceIo, FileRoundTrip) {
  const Trace original(Seconds{10.0}, {1.0, 2.0, 3.0});
  const std::string path = ::testing::TempDir() + "/eclb_trace_io_test.csv";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out);
    save_trace(out, original);
  }
  const auto loaded = load_trace_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 3U);
  EXPECT_DOUBLE_EQ(loaded->at(2), 3.0);
}

TEST(TraceIo, MissingFileFails) {
  EXPECT_FALSE(load_trace_file("/nonexistent/path/trace.csv").has_value());
}

TEST(TraceIo, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_FALSE(load_trace(in).has_value());
}

TEST(TraceIo, RejectsHeaderOnly) {
  std::istringstream in("time_s,demand\n");
  EXPECT_FALSE(load_trace(in).has_value());
}

TEST(TraceIo, RejectsSingleSample) {
  std::istringstream in("time_s,demand\n0,1\n");
  EXPECT_FALSE(load_trace(in).has_value());
}

TEST(TraceIo, RejectsNonNumericCells) {
  std::istringstream in("time_s,demand\n0,1\nsixty,2\n");
  EXPECT_FALSE(load_trace(in).has_value());
}

TEST(TraceIo, RejectsNegativeDemand) {
  std::istringstream in("time_s,demand\n0,1\n60,-2\n");
  EXPECT_FALSE(load_trace(in).has_value());
}

TEST(TraceIo, RejectsNonUniformSpacing) {
  std::istringstream in("time_s,demand\n0,1\n60,2\n150,3\n");
  EXPECT_FALSE(load_trace(in).has_value());
}

TEST(TraceIo, SkipsBlankLines) {
  std::istringstream in("time_s,demand\n0,1\n\n60,2\n");
  const auto loaded = load_trace(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2U);
}

TEST(TraceIo, ToleratesBlanksAndCrlfRows) {
  std::istringstream in("time_s,demand\r\n0, 1\r\n 60 ,\t2\r\n");
  const auto loaded = load_trace(in);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2U);
  EXPECT_DOUBLE_EQ(loaded->at(1), 2.0);
}

TEST(TraceIo, RejectsTrailingJunkAndNonFiniteCells) {
  for (const char* body : {"0,1\n60,2x\n", "0,1\n60,2,3\n", "0,1\n60,inf\n",
                           "0,nan\n60,2\n"}) {
    std::istringstream in(std::string("time_s,demand\n") + body);
    EXPECT_FALSE(load_trace(in).has_value()) << body;
  }
}

TEST(TraceIo, LoadedTraceReplaysAsProfile) {
  const Trace t(Seconds{60.0}, {10.0, 20.0});
  std::ostringstream out;
  save_trace(out, t);
  std::istringstream in(out.str());
  const auto loaded = load_trace(in);
  ASSERT_TRUE(loaded.has_value());
  const TraceProfile profile(*loaded);
  EXPECT_DOUBLE_EQ(profile.demand(Seconds{30.0}), 15.0);
}

}  // namespace
}  // namespace eclb::workload
