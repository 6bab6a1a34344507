#include "span_recorder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

namespace perfbench {

namespace {

constexpr double kNsPerMs = 1e6;

std::int64_t since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

/// A stretch of one shard's time spent in exactly one layer.
struct Leaf {
  std::int64_t start{0};
  std::int64_t end{0};
  SpanKind kind{SpanKind::kRound};  ///< kRound stands for round self time.
};

}  // namespace

std::string_view span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAdvance:
      return "requests.advance";
    case SpanKind::kStep:
      return "step";
    case SpanKind::kRound:
      return "round";
    case SpanKind::kPlacement:
      return "placement_search";
    case SpanKind::kSettle:
      return "cstate_settle";
  }
  return "?";
}

void ShardTracer::on_interval_begin(std::size_t interval,
                                    eclb::common::Seconds) {
  interval_ = static_cast<std::uint32_t>(interval);
  const std::int64_t now = since(epoch_);
  open_round_ = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      {now, now, -1, interval_, SpanKind::kRound, std::this_thread::get_id()});
}

void ShardTracer::on_interval_end(const eclb::cluster::IntervalReport&,
                                  eclb::common::Seconds) {
  if (open_round_ >= 0) {
    spans_[static_cast<std::size_t>(open_round_)].end_ns = since(epoch_);
  }
  open_round_ = -1;
}

void ShardTracer::on_phase(std::string_view phase, double wall_seconds) {
  SpanKind kind;
  if (phase == "placement_search") {
    kind = SpanKind::kPlacement;
  } else if (phase == "cstate_settle") {
    kind = SpanKind::kSettle;
  } else {
    return;  // "round" is taken from the interval callbacks instead.
  }
  const std::int64_t end = since(epoch_);
  const auto duration =
      static_cast<std::int64_t>(std::llround(wall_seconds * 1e9));
  spans_.push_back({end - duration, end, open_round_, interval_, kind});
}

SpanRecorder::SpanRecorder(std::size_t shards) : epoch_(Clock::now()) {
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<ShardTracer>(epoch_));
  }
}

void SpanRecorder::record(SpanKind kind, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint32_t interval) {
  main_.push_back({start_ns, end_ns, -1, interval, kind});
}

LayerTimes SpanRecorder::attribute() const {
  LayerTimes t;
  std::vector<const Span*> steps;
  for (const Span& s : main_) {
    if (s.kind == SpanKind::kAdvance) {
      t.advance_ms += static_cast<double>(s.end_ns - s.start_ns) / kNsPerMs;
    } else {
      steps.push_back(&s);
    }
  }
  const std::size_t n = steps.size();

  // Per step: every shard's time cut into single-layer leaves, and each
  // worker's last round end.
  std::vector<std::vector<Leaf>> leaves(n);
  using WorkerEnd = std::pair<std::thread::id, std::int64_t>;
  std::vector<std::vector<WorkerEnd>> worker_end(n);
  for (const auto& tracer : shards_) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t j = 0; j < spans.size(); ++j) {
      if (spans[j].kind == SpanKind::kPlacement) ++t.placement_calls;
      if (spans[j].parent >= 0) {
        children[static_cast<std::size_t>(spans[j].parent)].push_back(j);
      }
    }
    for (std::size_t j = 0; j < spans.size(); ++j) {
      const Span& s = spans[j];
      if (s.interval >= n) continue;
      std::vector<Leaf>& out = leaves[s.interval];
      if (s.kind != SpanKind::kRound) {
        if (s.parent < 0) out.push_back({s.start_ns, s.end_ns, s.kind});
        continue;
      }
      t.round_sum_ms += static_cast<double>(s.end_ns - s.start_ns) / kNsPerMs;
      auto& ends = worker_end[s.interval];
      auto w = std::find_if(ends.begin(), ends.end(),
                            [&](const auto& e) { return e.first == s.thread; });
      if (w == ends.end()) {
        ends.emplace_back(s.thread, s.end_ns);
      } else {
        w->second = std::max(w->second, s.end_ns);
      }
      // Children are sequential on the shard's thread; a child nested in
      // an earlier one is already covered and is clipped away.
      std::int64_t cursor = s.start_ns;
      for (const std::size_t c : children[j]) {
        const std::int64_t start = std::max(spans[c].start_ns, cursor);
        const std::int64_t end = std::min(spans[c].end_ns, s.end_ns);
        if (end <= start) continue;
        if (start > cursor) out.push_back({cursor, start, SpanKind::kRound});
        out.push_back({start, end, spans[c].kind});
        cursor = end;
      }
      if (s.end_ns > cursor) {
        out.push_back({cursor, s.end_ns, SpanKind::kRound});
      }
    }
  }

  struct Edge {
    std::int64_t at;
    int delta;
    SpanKind kind;
  };
  std::vector<Edge> edges;
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t lo = steps[k]->start_ns;
    const std::int64_t hi = steps[k]->end_ns;
    std::int64_t first_end = std::numeric_limits<std::int64_t>::max();
    std::int64_t last_end = std::numeric_limits<std::int64_t>::min();
    for (const auto& [worker, end] : worker_end[k]) {
      first_end = std::min(first_end, end);
      last_end = std::max(last_end, end);
    }
    t.parallel_ms += static_cast<double>(last_end - lo) / kNsPerMs;
    t.skew_ms += static_cast<double>(last_end - first_end) / kNsPerMs;
    edges.clear();
    for (const Leaf& leaf : leaves[k]) {
      const std::int64_t start = std::clamp(leaf.start, lo, hi);
      const std::int64_t end = std::clamp(leaf.end, lo, hi);
      if (end <= start) continue;
      edges.push_back({start, +1, leaf.kind});
      edges.push_back({end, -1, leaf.kind});
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.at < b.at; });

    // Sweep: each stretch between edges goes to the open layers in
    // proportion to how many shards are in each; an uncovered stretch is
    // kernel time, or barrier time once the step's last round has ended.
    std::array<int, 5> open{};
    int open_total = 0;
    std::int64_t prev = lo;
    auto book = [&](std::int64_t until) {
      const double dt = static_cast<double>(until - prev) / kNsPerMs;
      if (dt <= 0.0) return;
      if (open_total > 0) {
        const double share = dt / open_total;
        t.protocol_self_ms += share * open[static_cast<int>(SpanKind::kRound)];
        t.placement_ms += share * open[static_cast<int>(SpanKind::kPlacement)];
        t.settle_ms += share * open[static_cast<int>(SpanKind::kSettle)];
      } else if (prev >= last_end) {
        t.barrier_ms += dt;
      } else {
        t.kernel_ms += dt;
      }
    };
    for (const Edge& e : edges) {
      book(e.at);
      prev = std::max(prev, e.at);
      open[static_cast<int>(e.kind)] += e.delta;
      open_total += e.delta;
    }
    book(hi);
  }
  return t;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                  "\"args\":{\"name\":\"driver\"}}");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::fprintf(f, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":%zu,\"args\":{\"name\":\"shard %zu\"}}",
                 i + 1, i);
  }
  auto emit = [f](const Span& s, std::size_t tid) {
    const std::string_view name = span_name(s.kind);
    std::fprintf(f,
                 ",\n{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"interval\":%u,"
                 "\"parent\":%d}}",
                 static_cast<int>(name.size()), name.data(), tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.interval,
                 s.parent);
  };
  for (const Span& s : main_) emit(s, 0);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (const Span& s : shards_[i]->spans()) emit(s, i + 1);
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
