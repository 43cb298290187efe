// The four end-to-end workloads. Each generates its inputs from the
// seed, measures for the given number of seconds through the library's
// public entry points, checks the outputs, and fills a Result.
//
// Untraced runs report the end-to-end metrics. Traced runs (a non-null
// tracer) re-drive one unit of work layer by layer under spans and
// report the per-layer metrics instead.
//
// Every run does one untimed warm-up unit before it measures: on the
// 4-vCPU virtual machine the baseline was recorded on, the first unit
// after a quiet or single-threaded spell ran 20-30% slower than the
// ones after it.

#ifndef UKC_E2EBENCH_WORKLOADS_H_
#define UKC_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace e2e {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  // Smoke size: tiny inputs, one repetition — for the self-tests.
  bool smoke = false;
  // Directory for the files a workload writes (the stream dataset).
  std::string workdir = ".";
  // Non-null: the traced run.
  Tracer* tracer = nullptr;
  // Only time untraced units of work (unit.untraced_s), the number the
  // traced run and a -DUKC_OBS=OFF build are compared on.
  bool unit_only = false;
};

// Open-loop arrival rate of the serve workload, in ops per second:
// about a third of the closed-loop capacity measured at seed 1 on the
// 4-core reference box. Fixed; never re-derived from a run.
inline constexpr double kServeOpenLoopRate = 7000.0;

void RunBatch(const RunConfig& config, Result* result);
void RunLocalSearch(const RunConfig& config, Result* result);
void RunStream(const RunConfig& config, Result* result);
void RunServe(const RunConfig& config, Result* result);

}  // namespace e2e

#endif  // UKC_E2EBENCH_WORKLOADS_H_
