// trace-gen -- writes a streaming request-rate trace (ECLBTRS1).
//
// The generator streams samples straight into the chunked writer, so the
// produced trace can be far larger than memory.  The output feeds the
// request engine's trace-modulated arrival stream:
//
//   trace-gen --out day.trs --profile diurnal --base 200 --hours 48
//   eclb_cli cluster --requests "trace:file=day.trs"
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "common/flags.h"
#include "common/rng.h"
#include "workload/stream/writer.h"

namespace {

using namespace eclb;

constexpr double kTwoPi = 6.283185307179586;

int usage() {
  std::fprintf(
      stderr,
      "usage: trace-gen --out FILE [--profile diurnal|spiky|constant]\n"
      "                 [--base RATE] [--amp FRAC] [--period SECS]\n"
      "                 [--hours H] [--dt SECS] [--chunk N]\n"
      "                 [--codec binary|text] [--seed S]\n"
      "writes a chunked rate trace (requests/second on a --dt grid) for\n"
      "the request engine's trace:file=... stream\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = common::Flags::parse(argc, argv);
  const auto bad = flags.unknown({"out", "profile", "base", "amp", "period",
                                  "hours", "dt", "chunk", "codec", "seed"});
  for (const auto& name : bad) {
    std::fprintf(stderr, "trace-gen: unknown flag --%s\n", name.c_str());
  }
  for (const auto& word : flags.positional()) {
    std::fprintf(stderr, "trace-gen: unexpected argument '%s'\n",
                 word.c_str());
  }
  if (!bad.empty() || !flags.positional().empty()) return usage();

  const std::string out = flags.get("out");
  const std::string profile = flags.get("profile", "diurnal");
  const double base = flags.get_double("base", 100.0);
  const double amp = flags.get_double("amp", 0.6);
  const double period = flags.get_double("period", 24.0 * 3600.0);
  const double hours = flags.get_double("hours", 24.0);
  const double dt = flags.get_double("dt", 60.0);
  const long long chunk_flag = flags.get_int("chunk", 4096);
  const std::string codec_name = flags.get("codec", "binary");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  for (const auto& err : flags.errors()) {
    std::fprintf(stderr, "trace-gen: %s\n", err.c_str());
  }
  if (!flags.errors().empty()) return usage();
  // The chunk size is a 32-bit header field.
  constexpr std::uint32_t kMaxChunk = std::numeric_limits<std::uint32_t>::max();
  if (chunk_flag < 1 || chunk_flag > kMaxChunk) {
    std::fprintf(stderr, "trace-gen: --chunk must be in [1, %u], got %lld\n",
                 kMaxChunk, chunk_flag);
    return 2;
  }
  const auto chunk = static_cast<std::uint32_t>(chunk_flag);

  if (out.empty() || base < 0.0 || amp < 0.0 || amp >= 1.0 ||
      period <= 0.0 || hours <= 0.0 || dt <= 0.0) {
    return usage();
  }
  workload::stream::StreamCodec codec;
  if (codec_name == "binary") {
    codec = workload::stream::StreamCodec::kBinary;
  } else if (codec_name == "text") {
    codec = workload::stream::StreamCodec::kText;
  } else {
    return usage();
  }
  if (profile != "diurnal" && profile != "spiky" && profile != "constant") {
    return usage();
  }

  workload::stream::TraceStreamWriter writer(out, codec, dt, chunk);
  if (!writer.ok()) {
    std::fprintf(stderr, "trace-gen: could not open %s for writing\n",
                 out.c_str());
    return 2;
  }

  common::Rng rng(seed);
  const auto samples =
      static_cast<std::uint64_t>(std::floor(hours * 3600.0 / dt)) + 1;
  // Spiky state: occasional flash crowds layered on the base rate.
  bool in_spike = false;
  double spike_until = 0.0;
  double spike_scale = 0.0;
  for (std::uint64_t i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) * dt;
    double value = base;
    if (profile == "diurnal") {
      value = base * (1.0 + amp * std::sin(kTwoPi * t / period));
    } else if (profile == "spiky") {
      if (in_spike && t >= spike_until) in_spike = false;
      if (!in_spike && rng.bernoulli(dt / 1800.0)) {
        in_spike = true;
        spike_until = t + rng.uniform(60.0, 600.0);
        spike_scale = rng.uniform(1.0, 4.0);
      }
      value = base * (in_spike ? 1.0 + spike_scale : 1.0);
    }
    writer.push(value < 0.0 ? 0.0 : value);
  }
  if (!writer.finish()) {
    std::fprintf(stderr, "trace-gen: write failed on %s\n", out.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "trace-gen: %llu samples (%.1f h at dt=%.1f s, %s, chunk %u) "
               "-> %s\n",
               static_cast<unsigned long long>(writer.total_samples()), hours,
               dt, codec_name.c_str(), chunk, out.c_str());
  return 0;
}
