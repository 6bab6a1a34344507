// Streaming trace format tests: round-trips through both codecs, damage
// detection (truncation, CRC flips, bad magic), the interpolating rate
// cursor, and the bounded-memory replay contract.
#include "workload/stream/reader.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/sysinfo.h"
#include "workload/stream/format.h"
#include "workload/stream/writer.h"

namespace eclb::workload::stream {
namespace {

using common::Seconds;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes `values` through the chunked writer and returns the path.
std::string write_stream(const char* name, StreamCodec codec, double dt,
                         std::uint32_t samples_per_chunk,
                         const std::vector<double>& values) {
  const std::string path = temp_path(name);
  TraceStreamWriter writer(path, codec, dt, samples_per_chunk);
  EXPECT_TRUE(writer.ok());
  for (const double v : values) writer.push(v);
  EXPECT_TRUE(writer.finish());
  EXPECT_EQ(writer.total_samples(), values.size());
  return path;
}

/// Reads every chunk back into one flat vector; expects a clean EOF.
std::vector<double> read_all(const std::string& path) {
  TraceStreamReader reader(path);
  EXPECT_EQ(reader.status(), StreamStatus::kOk);
  std::vector<double> all;
  std::vector<double> chunk;
  while (reader.next_chunk(&chunk) == StreamStatus::kOk) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(reader.status(), StreamStatus::kEof);
  EXPECT_EQ(reader.samples_read(), all.size());
  return all;
}

TEST(TraceStream, BinaryRoundTripWithPartialTailChunk) {
  // 10 samples at 4 per chunk: two full chunks plus a 2-sample tail.
  const std::vector<double> values = {0.0,  1.5,   2.25, 3.0, 100.5,
                                      0.75, 1e-12, 7.0,  8.5, 9.125};
  const auto path = write_stream("rt_binary.trs", StreamCodec::kBinary, 30.0,
                                 4, values);
  TraceStreamReader reader(path);
  ASSERT_EQ(reader.status(), StreamStatus::kOk);
  EXPECT_EQ(reader.header().codec, StreamCodec::kBinary);
  EXPECT_DOUBLE_EQ(reader.header().dt, 30.0);
  EXPECT_EQ(reader.header().samples_per_chunk, 4U);
  EXPECT_EQ(reader.header().total_samples, 10U);  // Patched by finish().

  const auto got = read_all(path);
  ASSERT_EQ(got.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], values[i]) << i;  // Binary is bit-exact.
  }
}

TEST(TraceStream, TextRoundTripIsBitExact) {
  // The text codec prints with round-trip precision, so even awkward
  // doubles survive.
  const std::vector<double> values = {0.1, 1.0 / 3.0, 1e-300, 12345.6789};
  const auto path =
      write_stream("rt_text.trs", StreamCodec::kText, 60.0, 3, values);
  const auto got = read_all(path);
  ASSERT_EQ(got.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], values[i]) << i;
  }
  // And the payload really is line-oriented text.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find('\n'), std::string::npos);
}

TEST(TraceStream, TextCodecRejectsNonFiniteSamples) {
  // The text codec reads samples with the shared finite-number rule, so a
  // "nan" line is a corrupt chunk, not a NaN rate.
  const auto path = write_stream("nan_text.trs", StreamCodec::kText, 60.0, 4,
                                 {1.0, std::nan(""), 2.0});
  TraceStreamReader reader(path);
  ASSERT_EQ(reader.status(), StreamStatus::kOk);
  std::vector<double> chunk;
  EXPECT_EQ(reader.next_chunk(&chunk), StreamStatus::kCorruptChunk);
}

TEST(TraceStream, EmptyStreamReadsCleanly) {
  const auto path =
      write_stream("rt_empty.trs", StreamCodec::kBinary, 60.0, 8, {});
  TraceStreamReader reader(path);
  ASSERT_EQ(reader.status(), StreamStatus::kOk);
  EXPECT_EQ(reader.header().total_samples, 0U);
  std::vector<double> chunk;
  EXPECT_EQ(reader.next_chunk(&chunk), StreamStatus::kEof);
  EXPECT_TRUE(chunk.empty());
}

TEST(TraceStream, MissingFileIsIoError) {
  TraceStreamReader reader(temp_path("no_such_stream.trs"));
  EXPECT_EQ(reader.status(), StreamStatus::kIoError);
}

TEST(TraceStream, ForeignFileIsBadMagic) {
  const std::string path = temp_path("not_a_stream.trs");
  std::ofstream(path) << "time_s,demand\n0,1\n60,2\n";
  TraceStreamReader reader(path);
  EXPECT_EQ(reader.status(), StreamStatus::kBadMagic);
}

TEST(TraceStream, TruncatedTailIsDetectedAtTheDamagedChunk) {
  const std::vector<double> values(10, 2.5);
  const auto path = write_stream("rt_trunc.trs", StreamCodec::kBinary, 60.0,
                                 4, values);
  // Chop the file mid-way through the second chunk's payload.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t first_chunk_end =
      kHeaderBytes + kChunkFrameBytes + 4 * sizeof(double);
  const std::string damaged = contents.substr(0, first_chunk_end + 5);
  const std::string cut_path = temp_path("rt_trunc_cut.trs");
  std::ofstream(cut_path, std::ios::binary) << damaged;

  TraceStreamReader reader(cut_path);
  ASSERT_EQ(reader.status(), StreamStatus::kOk);
  std::vector<double> chunk;
  ASSERT_EQ(reader.next_chunk(&chunk), StreamStatus::kOk);  // Chunk 1 intact.
  EXPECT_EQ(chunk.size(), 4U);
  EXPECT_EQ(reader.next_chunk(&chunk), StreamStatus::kTruncatedChunk);
  // The error is sticky.
  EXPECT_EQ(reader.next_chunk(&chunk), StreamStatus::kTruncatedChunk);
  EXPECT_EQ(reader.samples_read(), 4U);
}

TEST(TraceStream, FlippedPayloadBitIsACorruptChunk) {
  const std::vector<double> values(8, 1.0);
  const auto path = write_stream("rt_crc.trs", StreamCodec::kBinary, 60.0, 4,
                                 values);
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  // Flip one bit inside the SECOND chunk's payload; the first must still
  // decode (damage is localized to the chunk that carries it).
  const std::size_t second_payload =
      kHeaderBytes + 2 * kChunkFrameBytes + 4 * sizeof(double) + 3;
  ASSERT_LT(second_payload, contents.size());
  contents[second_payload] = static_cast<char>(contents[second_payload] ^ 0x10);
  const std::string bad_path = temp_path("rt_crc_bad.trs");
  std::ofstream(bad_path, std::ios::binary) << contents;

  TraceStreamReader reader(bad_path);
  ASSERT_EQ(reader.status(), StreamStatus::kOk);
  std::vector<double> chunk;
  ASSERT_EQ(reader.next_chunk(&chunk), StreamStatus::kOk);
  EXPECT_EQ(reader.next_chunk(&chunk), StreamStatus::kCorruptChunk);
  EXPECT_EQ(reader.next_chunk(&chunk), StreamStatus::kCorruptChunk);
}

TEST(TraceRateCursor, InterpolatesAcrossChunkBoundaries) {
  // dt = 10 s, 2 samples per chunk: the 15 s midpoint interpolates between
  // samples 1 and 2, which live in different chunks (the carry path).
  const auto path = write_stream("cursor.trs", StreamCodec::kBinary, 10.0, 2,
                                 {0.0, 10.0, 20.0, 30.0});
  TraceRateCursor cursor(path);
  ASSERT_EQ(cursor.status(), StreamStatus::kOk);
  EXPECT_DOUBLE_EQ(cursor.value_at(Seconds{0.0}), 0.0);
  EXPECT_DOUBLE_EQ(cursor.value_at(Seconds{5.0}), 5.0);
  EXPECT_DOUBLE_EQ(cursor.value_at(Seconds{15.0}), 15.0);
  EXPECT_DOUBLE_EQ(cursor.value_at(Seconds{30.0}), 30.0);
  // Past the end the final value holds.
  EXPECT_DOUBLE_EQ(cursor.value_at(Seconds{500.0}), 30.0);
}

TEST(TraceRateCursor, WindowMaxCoversEveryOverlappingSegment) {
  const auto path = write_stream("cursor_max.trs", StreamCodec::kBinary, 10.0,
                                 2, {1.0, 9.0, 2.0, 3.0});
  TraceRateCursor cursor(path);
  ASSERT_EQ(cursor.status(), StreamStatus::kOk);
  // [0, 25) overlaps segments touching samples 0..2: the peak is 9.
  EXPECT_DOUBLE_EQ(cursor.window_max(Seconds{0.0}, Seconds{25.0}), 9.0);
  // [25, 40) sees samples 2..3 only.
  EXPECT_DOUBLE_EQ(cursor.window_max(Seconds{25.0}, Seconds{40.0}), 3.0);
}

TEST(TraceStream, ReplayMemoryIsBoundedByChunkNotFile) {
  // ~24 MB of samples through 4096-sample (32 KB) chunks: the reader's
  // peak-RSS growth must stay far below the file size.  The bound is half
  // the file -- loose enough for allocator noise and instrumented builds,
  // impossible for an implementation that slurps the file.
  constexpr std::uint64_t kSamples = 3000000;
  const std::string path = temp_path("bounded_rss.trs");
  {
    TraceStreamWriter writer(path, StreamCodec::kBinary, 1.0, 4096);
    ASSERT_TRUE(writer.ok());
    for (std::uint64_t i = 0; i < kSamples; ++i) {
      writer.push(static_cast<double>(i % 1000));
    }
    ASSERT_TRUE(writer.finish());
  }
  const std::size_t before = common::peak_rss_bytes();
  TraceStreamReader reader(path);
  ASSERT_EQ(reader.status(), StreamStatus::kOk);
  std::uint64_t n = 0;
  std::vector<double> chunk;
  while (reader.next_chunk(&chunk) == StreamStatus::kOk) n += chunk.size();
  ASSERT_EQ(reader.status(), StreamStatus::kEof);
  ASSERT_EQ(n, kSamples);
  const std::size_t after = common::peak_rss_bytes();
  const std::size_t file_bytes = kSamples * sizeof(double);
  EXPECT_LT(after - before, file_bytes / 2)
      << "replay grew peak RSS by " << (after - before) << " bytes";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eclb::workload::stream
