#include "workload/stream/reader.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string_view>

#include "common/spec_reader.h"

namespace eclb::workload::stream {

namespace {

/// Longest plausible text encoding of one sample ("%.17g\n" plus slack).
constexpr std::uint32_t kMaxTextBytesPerSample = 64;

}  // namespace

TraceStreamReader::TraceStreamReader(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_.is_open()) {
    status_ = StreamStatus::kIoError;
    return;
  }
  std::array<char, kHeaderBytes> buf{};
  in_.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  const auto got = static_cast<std::size_t>(in_.gcount());
  if (got < kHeaderBytes) {
    status_ = got >= kMagic.size() &&
                      std::memcmp(buf.data(), kMagic.data(), kMagic.size()) != 0
                  ? StreamStatus::kBadMagic
                  : StreamStatus::kBadHeader;
    return;
  }
  status_ = decode_header(buf.data(), &header_);
}

StreamStatus TraceStreamReader::next_chunk(std::vector<double>* out) {
  out->clear();
  if (status_ != StreamStatus::kOk) return status_;

  std::array<char, kChunkFrameBytes> frame{};
  in_.read(frame.data(), static_cast<std::streamsize>(frame.size()));
  const auto frame_got = static_cast<std::size_t>(in_.gcount());
  if (frame_got == 0 && in_.eof()) {
    status_ = StreamStatus::kEof;
    return status_;
  }
  if (frame_got < frame.size()) {
    status_ = StreamStatus::kTruncatedChunk;
    return status_;
  }
  const std::uint32_t count = get_u32(frame.data());
  const std::uint32_t payload_len = get_u32(frame.data() + 4);
  const std::uint32_t want_crc = get_u32(frame.data() + 8);
  const bool plausible =
      count > 0 && count <= header_.samples_per_chunk &&
      (header_.codec == StreamCodec::kBinary
           ? payload_len == count * sizeof(double)
           : payload_len <= count * kMaxTextBytesPerSample);
  if (!plausible) {
    status_ = StreamStatus::kCorruptChunk;
    return status_;
  }

  payload_.resize(payload_len);
  in_.read(payload_.data(), static_cast<std::streamsize>(payload_len));
  if (static_cast<std::uint32_t>(in_.gcount()) < payload_len) {
    status_ = StreamStatus::kTruncatedChunk;
    return status_;
  }
  if (crc32(payload_.data(), payload_.size()) != want_crc) {
    status_ = StreamStatus::kCorruptChunk;
    return status_;
  }

  status_ = decode_payload(count, out);
  if (status_ == StreamStatus::kOk) {
    samples_read_ += out->size();
    ++chunks_read_;
  }
  return status_;
}

StreamStatus TraceStreamReader::decode_payload(std::uint32_t count,
                                               std::vector<double>* out) {
  out->reserve(count);
  if (header_.codec == StreamCodec::kBinary) {
    for (std::uint32_t i = 0; i < count; ++i) {
      out->push_back(get_f64(payload_.data() + i * sizeof(double)));
    }
    return StreamStatus::kOk;
  }
  // Text codec: one finite decimal per '\n'-terminated line.
  const std::string_view payload = payload_;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    const std::size_t nl = payload.find('\n', pos);
    double v = 0.0;
    if (nl == std::string_view::npos ||
        !common::read_number(payload.substr(pos, nl - pos), &v)) {
      return StreamStatus::kCorruptChunk;
    }
    out->push_back(v);
    pos = nl + 1;
  }
  return out->size() == count ? StreamStatus::kOk
                              : StreamStatus::kCorruptChunk;
}

// --- TraceRateCursor --------------------------------------------------------

TraceRateCursor::TraceRateCursor(const std::string& path) : reader_(path) {
  status_ = reader_.status();
}

void TraceRateCursor::load_through(std::uint64_t idx) {
  while (!exhausted_ && idx >= chunk_base_ + chunk_.size()) {
    std::uint64_t next_base = chunk_base_;
    if (!chunk_.empty()) {
      carry_ = chunk_.back();
      has_carry_ = true;
      next_base = chunk_base_ + chunk_.size();
    }
    std::vector<double> incoming;
    const StreamStatus st = reader_.next_chunk(&incoming);
    if (st == StreamStatus::kOk) {
      chunk_.swap(incoming);
      chunk_base_ = next_base;
      last_value_ = chunk_.back();
    } else {
      exhausted_ = true;
      if (st != StreamStatus::kEof) status_ = st;
    }
  }
}

double TraceRateCursor::sample(std::uint64_t idx) const {
  if (idx >= chunk_base_ + chunk_.size()) return last_value_;
  if (chunk_base_ > 0 && idx < chunk_base_) return has_carry_ ? carry_ : 0.0;
  if (chunk_.empty()) return last_value_;
  return chunk_[idx - chunk_base_];
}

double TraceRateCursor::value_at(common::Seconds t) {
  if (status_ != StreamStatus::kOk && status_ != StreamStatus::kEof) return 0.0;
  const double dt = header().dt;
  const double pos = std::max(0.0, t.value / dt);
  const auto lo = static_cast<std::uint64_t>(std::floor(pos));
  load_through(lo + 1);
  const double a = sample(lo);
  const double b = sample(lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return a + frac * (b - a);
}

double TraceRateCursor::window_max(common::Seconds t0, common::Seconds t1) {
  if (status_ != StreamStatus::kOk && status_ != StreamStatus::kEof) return 0.0;
  const double dt = header().dt;
  const auto lo = static_cast<std::uint64_t>(
      std::floor(std::max(0.0, t0.value / dt)));
  const auto hi = static_cast<std::uint64_t>(
      std::floor(std::max(0.0, t1.value / dt))) + 1;
  load_through(hi);
  double m = 0.0;
  for (std::uint64_t i = lo; i <= hi; ++i) m = std::max(m, sample(i));
  return m;
}

}  // namespace eclb::workload::stream
