// Self-tests of the benchmark harness (harness.h). Exits non-zero on the
// first failed expectation. The smoke-size workload runs are separate
// CTest entries (see CMakeLists.txt).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i + 1);
  return values;
}

// The reporter picks the highest percentile with >= 10 samples beyond it.
void TestPercentileReporter() {
  Expect(e2e::ReportTail(Ramp(5)).percentile == 50.0, "5 samples: median");
  Expect(e2e::ReportTail(Ramp(20)).percentile == 50.0, "20 samples: p50");
  Expect(e2e::ReportTail(Ramp(99)).percentile == 50.0, "99 samples: p50 (p90 has 9.9)");
  Expect(e2e::ReportTail(Ramp(100)).percentile == 90.0, "100 samples: p90");
  Expect(e2e::ReportTail(Ramp(999)).percentile == 90.0, "999 samples: p90");
  Expect(e2e::ReportTail(Ramp(1000)).percentile == 99.0, "1000 samples: p99");
  Expect(e2e::ReportTail(Ramp(10000)).percentile == 99.9, "10000 samples: p99.9");
  Expect(e2e::ReportTail(Ramp(10000), 99.0).percentile == 99.0, "cap at p99");

  const e2e::TailReport p99 = e2e::ReportTail(Ramp(1000), 99.0);
  Expect(p99.value == 990.0, "p99 of 1..1000 is 990 by nearest rank");
  Expect(p99.samples == 1000, "sample count carried");
  Expect(e2e::ReportTail(Ramp(101)).value == 91.0, "p90 of 1..101 is 91");
  Expect(e2e::Median(Ramp(4)) == 2.5, "median of an even count");
}

// Open-loop latency counts from the due time: an op queued behind a
// stalled op is charged the wait, which a start-to-end timer would hide.
void TestOpenLoopStall() {
  const std::vector<double> due = {0.000, 0.002, 0.004, 0.100};
  const std::vector<e2e::OpTiming> timings = e2e::RunOpenLoop(
      due, [](size_t i, e2e::Clock::time_point, std::vector<e2e::OpTiming>*) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      });
  Expect(timings[0].Latency() >= 0.050, "stalled op latency >= its stall");
  Expect(timings[1].Latency() >= 0.048, "op due at 2 ms waits behind the stall");
  Expect(timings[2].Latency() >= 0.046, "op due at 4 ms waits behind the stall");
  Expect(timings[1].Lag() >= 0.048, "generator lag shows the stall");
  Expect(timings[1].end - timings[1].start < 0.010,
         "the queued op's own service time is short");
  Expect(timings[3].Lag() < 0.010, "an op due after the stall runs on time");
  for (const e2e::OpTiming& t : timings) {
    Expect(t.start >= t.due, "no op starts before it is due");
  }
}

// An op may complete later than its call: the deferred end counts.
void TestDeferredCompletion() {
  const std::vector<double> due = {0.0, 0.010};
  const std::vector<e2e::OpTiming> timings = e2e::RunOpenLoop(
      due, [](size_t i, e2e::Clock::time_point origin,
              std::vector<e2e::OpTiming>* t) {
        if (i == 1) (*t)[0].end = e2e::SecondsSince(origin);  // The ack.
      });
  Expect(timings[0].Latency() >= 0.010, "append acked by a later drain");
}

void TestPoissonSchedule() {
  ukc::Rng a(7);
  ukc::Rng b(7);
  const std::vector<double> first = e2e::PoissonSchedule(a, 1000.0, 2.0);
  Expect(first == e2e::PoissonSchedule(b, 1000.0, 2.0), "same seed, same schedule");
  Expect(std::abs(static_cast<double>(first.size()) - 2000.0) < 200.0,
         "about rate * horizon arrivals");
  for (size_t i = 1; i < first.size(); ++i) {
    Expect(first[i] > first[i - 1], "arrivals ascend");
  }
}

void TestSelfTime() {
  e2e::Tracer tracer;
  {
    e2e::ScopedSpan outer(&tracer, "core.solve");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      e2e::ScopedSpan inner(&tracer, "cost.sweep");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const std::vector<e2e::Span>& spans = tracer.spans();
  Expect(spans.size() == 2 && spans[1].parent == 0, "child span records its parent");
  const std::vector<double> self = tracer.SelfTimes();
  Expect(self[1] >= 0.020, "child self time is its duration");
  Expect(self[0] >= 0.005 && self[0] < 0.015, "parent self time excludes the child");
}

}  // namespace

int main() {
  TestPercentileReporter();
  TestOpenLoopStall();
  TestDeferredCompletion();
  TestPoissonSchedule();
  TestSelfTime();
  if (failures == 0) std::printf("harness self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
