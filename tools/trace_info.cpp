// trace-info -- inspects a streaming request-rate trace (ECLBTRS1).
//
// Prints the header, then streams every chunk (bounded memory, like the
// request engine's replay) accumulating count / mean / peak.  A damaged
// file -- truncated tail, flipped payload bit, bad magic -- exits nonzero
// and names the failing status, which makes the tool double as a trace
// validator:
//
//   trace-info --file day.trs
//
// --validate tightens the walk into a full integrity audit: on top of the
// reader's CRC and truncation checks it enforces the framing invariants the
// lenient replay path tolerates -- every non-final chunk must carry exactly
// samples_per_chunk samples, every sample must be a finite non-negative
// rate, and the stream total must match the header's declared count.  Any
// violation names the offending chunk and exits nonzero:
//
//   trace-info --file day.trs --validate
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "workload/stream/reader.h"

namespace {

using namespace eclb;

const char* status_name(workload::stream::StreamStatus s) {
  using Status = workload::stream::StreamStatus;
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kEof: return "eof";
    case Status::kIoError: return "io error";
    case Status::kBadMagic: return "bad magic";
    case Status::kBadHeader: return "bad header";
    case Status::kTruncatedChunk: return "truncated chunk";
    case Status::kCorruptChunk: return "corrupt chunk (CRC mismatch)";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = common::Flags::parse(argc, argv);
  const std::string file = flags.get("file");
  const bool validate = flags.get_bool("validate");
  for (const auto& err : flags.errors()) {
    std::fprintf(stderr, "%s\n", err.c_str());
  }
  if (file.empty() || !flags.errors().empty()) {
    std::fprintf(stderr, "usage: trace-info --file FILE [--validate]\n");
    return 2;
  }

  workload::stream::TraceStreamReader reader(file);
  using Status = workload::stream::StreamStatus;
  if (reader.status() != Status::kOk && reader.status() != Status::kEof) {
    std::fprintf(stderr, "trace-info: %s: %s\n", file.c_str(),
                 status_name(reader.status()));
    return 2;
  }
  const workload::stream::StreamHeader& h = reader.header();
  std::printf("file:              %s\n", file.c_str());
  std::printf("codec:             %s\n",
              h.codec == workload::stream::StreamCodec::kBinary ? "binary"
                                                                : "text");
  std::printf("dt:                %.6g s\n", h.dt);
  std::printf("samples per chunk: %u\n", h.samples_per_chunk);
  std::printf("declared samples:  %llu\n",
              static_cast<unsigned long long>(h.total_samples));

  std::vector<double> chunk;
  double sum = 0.0;
  double peak = 0.0;
  // Framing audit state (--validate): a chunk's "non-final" status is only
  // known once a successor arrives, so the check trails by one chunk.
  std::uint64_t prev_count = 0;
  bool have_prev = false;
  while (reader.next_chunk(&chunk) == Status::kOk) {
    if (validate) {
      if (have_prev && prev_count != h.samples_per_chunk) {
        std::fprintf(stderr,
                     "trace-info: %s: chunk %llu is short (%llu samples, "
                     "non-final chunks must carry %u)\n",
                     file.c_str(),
                     static_cast<unsigned long long>(reader.chunks_read() - 2),
                     static_cast<unsigned long long>(prev_count),
                     h.samples_per_chunk);
        return 3;
      }
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (!std::isfinite(chunk[i]) || chunk[i] < 0.0) {
          std::fprintf(stderr,
                       "trace-info: %s: chunk %llu sample %llu is not a "
                       "finite non-negative rate (%g)\n",
                       file.c_str(),
                       static_cast<unsigned long long>(reader.chunks_read() -
                                                       1),
                       static_cast<unsigned long long>(i), chunk[i]);
          return 3;
        }
      }
      prev_count = chunk.size();
      have_prev = true;
    }
    for (const double v : chunk) {
      sum += v;
      if (v > peak) peak = v;
    }
  }
  if (reader.status() != Status::kEof) {
    std::fprintf(stderr, "trace-info: %s: %s at chunk %llu\n", file.c_str(),
                 status_name(reader.status()),
                 static_cast<unsigned long long>(reader.chunks_read()));
    return 3;
  }
  const std::uint64_t n = reader.samples_read();
  std::printf("chunks:            %llu\n",
              static_cast<unsigned long long>(reader.chunks_read()));
  std::printf("samples:           %llu (%.4g h)\n",
              static_cast<unsigned long long>(n),
              static_cast<double>(n) * h.dt / 3600.0);
  std::printf("mean rate:         %.6g\n",
              n == 0 ? 0.0 : sum / static_cast<double>(n));
  std::printf("peak rate:         %.6g\n", peak);
  if (n != h.total_samples) {
    std::fprintf(stderr,
                 "trace-info: %s: header declares %llu samples, stream "
                 "carries %llu\n",
                 file.c_str(),
                 static_cast<unsigned long long>(h.total_samples),
                 static_cast<unsigned long long>(n));
    return 3;
  }
  if (validate) {
    std::printf("validate:          OK (%llu chunks, %llu samples)\n",
                static_cast<unsigned long long>(reader.chunks_read()),
                static_cast<unsigned long long>(n));
  }
  return 0;
}
