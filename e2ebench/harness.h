// Measurement primitives of the end-to-end benchmark: a tail-percentile
// reporter, an in-memory span tracer with self-time attribution, an
// open-loop scheduler that times each op from when it was due, and a
// small JSON result writer. Header-only so the self-tests link exactly
// the code the benchmark runs.

#ifndef UKC_E2EBENCH_HARNESS_H_
#define UKC_E2EBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Value at percentile p (0..100) by the nearest-rank rule on sorted data.
inline double PercentileOf(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::nan("");
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

// A reported tail: which percentile was admissible, its value, and the
// sample count it was taken from.
struct TailReport {
  double percentile = 50.0;
  double value = std::nan("");
  size_t samples = 0;
};

// Picks the highest ladder percentile (capped at `cap`) with at least
// ten samples beyond it — a p99 of 200 samples rests on two values and
// is not reported as one. Falls back to the median when even p50 lacks
// ten samples above it.
inline TailReport ReportTail(std::vector<double> values, double cap = 100.0) {
  TailReport report;
  report.samples = values.size();
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (p > cap) break;
    if (n * (1.0 - p / 100.0) >= 10.0 - 1e-9) report.percentile = p;
  }
  report.value = PercentileOf(values, report.percentile);
  return report;
}

// ---------------------------------------------------------------------------
// Span tracer. Spans are recorded from the benchmark's own code around
// each call into a library layer; a span's layer is the text before the
// first '.' of its name ("cost.assigned_sweep" -> "cost").

struct Span {
  std::string name;
  double start = 0.0;  // Seconds since the tracer was created.
  double end = 0.0;
  int parent = -1;     // Index of the enclosing span, -1 at top level.
  int run = 0;         // Identifier shared by the spans of one unit of work.
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void BeginRun() { ++run_; }

  int Begin(const std::string& name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.run = run_;
    span.start = Now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    spans_[id].end = Now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of span i: its duration minus the union of its direct
  // children's intervals (children never overlap on one thread, so the
  // union is their sum).
  std::vector<double> SelfTimes() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) self[span.parent] -= span.end - span.start;
    }
    return self;
  }

  // Durations of every span with this name, in record order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(span.end - span.start);
    }
    return out;
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"spans\":[\n";
    const std::vector<double> self = SelfTimes();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                    "\"self\":%.9f,\"parent\":%d,\"run\":%d}%s\n",
                    i, s.name.c_str(), s.start, s.end, self[i], s.parent,
                    s.run, i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  double Now() const { return SecondsSince(origin_); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

// Records a span for the lifetime of the scope; a null tracer records
// nothing, so one code path serves traced and untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Open loop: ops are due on a fixed schedule whether or not earlier ops
// have finished, and each op's latency counts from its due time, so a
// stall is charged to every op queued behind it.

// Poisson arrivals at `rate` per second over [0, horizon) seconds.
template <typename Rng>
std::vector<double> PoissonSchedule(Rng& rng, double rate, double horizon) {
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    t += rng.Exponential(rate);
    if (t >= horizon) break;
    due.push_back(t);
  }
  return due;
}

struct OpTiming {
  double due = 0.0;    // Scheduled send time, seconds from the loop start.
  double start = 0.0;  // When the client actually began the op.
  double end = 0.0;    // When the op completed.
  double Latency() const { return end - due; }
  double Lag() const { return start - due; }
};

// Waits until `target` seconds after `origin`: sleeps while far away,
// spins for the last stretch so a wake-up delay does not look like
// generator lag.
inline void WaitUntil(Clock::time_point origin, double target) {
  const auto deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(target));
  while (true) {
    const auto now = Clock::now();
    if (now >= deadline) return;
    if (deadline - now > std::chrono::microseconds(300)) {
      std::this_thread::sleep_for(deadline - now - std::chrono::microseconds(200));
    }
  }
}

// Runs op(i, origin, &timings) for each due time in order from one
// client thread, never before its due time. Returns per-op timings. An
// op that completes later than its call returns (an append completes
// when the drain that acks it ends) sets an earlier op's end itself,
// reading the clock as SecondsSince(origin).
using OpenLoopOp =
    std::function<void(size_t, Clock::time_point, std::vector<OpTiming>*)>;

inline std::vector<OpTiming> RunOpenLoop(const std::vector<double>& due,
                                         const OpenLoopOp& op) {
  std::vector<OpTiming> timings(due.size());
  const Clock::time_point origin = Clock::now();
  for (size_t i = 0; i < due.size(); ++i) {
    WaitUntil(origin, due[i]);
    timings[i].due = due[i];
    timings[i].start = SecondsSince(origin);
    op(i, origin, &timings);
    if (timings[i].end == 0.0) timings[i].end = SecondsSince(origin);
  }
  return timings;
}

// ---------------------------------------------------------------------------
// Result record of one benchmark process.

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // Percentile and sample count, when a tail.
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> provenance;

  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics[name] = Metric{value, unit, note};
  }
  void SetTail(const std::string& name, const TailReport& tail) {
    char note[96];
    std::snprintf(note, sizeof note, "p%g of %zu samples", tail.percentile,
                  tail.samples);
    Set(name, tail.value * 1e3, "ms", note);
  }
  // A failed output check fails the run and counts as a failed op.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    ++failed;
    check_failures.push_back(what);
  }

  std::string ToJson() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"check_failures\":[";
    for (size_t i = 0; i < check_failures.size(); ++i) {
      os << (i ? "," : "") << '"' << Escape(check_failures[i]) << '"';
    }
    os << "],\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : metrics) {
      os << (first ? "" : ",") << '"' << name << "\":{\"value\":";
      if (std::isfinite(m.value)) {
        os << m.value;
      } else {
        os << "null";
      }
      os << ",\"unit\":\"" << m.unit << "\",\"note\":\"" << Escape(m.note)
         << "\"}";
      first = false;
    }
    os << "},\"provenance\":{";
    first = true;
    for (const auto& [key, value] : provenance) {
      os << (first ? "" : ",") << '"' << key << "\":\"" << Escape(value) << '"';
      first = false;
    }
    os << "}}";
    return os.str();
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c == '\n' ? ' ' : c);
    }
    return out;
  }
};

}  // namespace e2e

#endif  // UKC_E2EBENCH_HARNESS_H_
