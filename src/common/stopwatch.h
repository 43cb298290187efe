// Wall-clock stopwatch: the whole-call timer of the bench/ harnesses.
// Library stage times are not measured here; they live in the metrics
// registry (obs/trace.h).

#ifndef UKC_COMMON_STOPWATCH_H_
#define UKC_COMMON_STOPWATCH_H_

#include <chrono>

namespace ukc {

/// Measures elapsed wall time since construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ukc

#endif  // UKC_COMMON_STOPWATCH_H_
