#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <malloc.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/surrogates.h"
#include "core/unassigned.h"
#include "core/uncertain_kcenter.h"
#include "cost/assignment.h"
#include "cost/expected_cost_evaluator.h"
#include "cost/parallel_evaluator.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "solver/certain_solver.h"
#include "stream/ingest.h"
#include "stream/pipeline.h"
#include "uncertain/generators.h"
#include "uncertain/io.h"

namespace e2e {
namespace {

using ukc::metric::SiteId;
using ukc::uncertain::UncertainDataset;
using ukc::uncertain::UncertainPointBatch;

// ---------------------------------------------------------------------------
// Shared helpers.

[[noreturn]] void Die(const ukc::Status& status, const char* what) {
  std::fprintf(stderr, "e2ebench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(3);
}

template <typename T>
T Must(ukc::Result<T> result, const char* what) {
  if (!result.ok()) Die(result.status(), what);
  return std::move(result).value();
}

void MustOk(const ukc::Status& status, const char* what) {
  if (!status.ok()) Die(status, what);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

// Runs fn(rep) at least `min_reps` times, then again while one more
// repetition of the average length still fits in `seconds`.
template <typename Fn>
void Repeat(double seconds, int min_reps, Fn fn) {
  const Clock::time_point start = Clock::now();
  for (int rep = 0;; ++rep) {
    const double elapsed = SecondsSince(start);
    if (rep >= min_reps && (rep == 0 || elapsed * (rep + 1) / rep > seconds)) break;
    fn(rep);
  }
}

// Starts the peak-memory record afresh: hands memory freed by set-up back
// to the system, then resets VmHWM to the current resident set.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) {
    std::fprintf(stderr, "e2ebench: cannot reset the peak resident set\n");
    std::exit(3);
  }
}

// Set-up timing. The first set-up, whose product the run keeps, comes
// before the warm-up; the peak-memory record starts when it ends, so
// peak_rss_mb measures the workload, not its generator. The other
// set-ups are throwaway repetitions spread over the measured phase,
// adding kSetupShare to its length, and setup_s is the median of all of
// them: the host's speed drifts over seconds to tens of seconds, and
// set-ups timed back to back all land in one phase of it. Traced,
// unit-only and smoke runs set up once and report no setup_s.
constexpr double kSetupShare = 0.2;
constexpr size_t kMinSetups = 3;

class SetupClock {
 public:
  // `keep` makes the product the run uses; `again` repeats the same
  // set-up and throws its product away.
  template <typename Keep>
  SetupClock(const RunConfig& config, Keep keep, std::function<void()> again)
      : timed_(config.tracer == nullptr && !config.smoke && !config.unit_only),
        again_(std::move(again)) {
    const Clock::time_point start = Clock::now();
    keep();
    walls_.push_back(SecondsSince(start));
    ResetPeakRss();
  }

  // The length of a measured phase whose units take `seconds`.
  double Budget(double seconds) const {
    return timed_ ? seconds * (1.0 + kSetupShare) : seconds;
  }

  // Called after each timed unit with its wall time.
  void After(double unit_seconds) {
    if (!timed_) return;
    units_ += unit_seconds;
    while (repeated_ < kSetupShare * units_) Again();
  }

  void Report(Result* result) {
    if (!timed_) return;
    while (walls_.size() < kMinSetups) Again();
    result->Set("setup_s", Median(walls_), "s", std::to_string(walls_.size()) + " set-ups");
  }

 private:
  void Again() {
    const Clock::time_point start = Clock::now();
    again_();
    walls_.push_back(SecondsSince(start));
    repeated_ += walls_.back();
  }

  bool timed_;
  std::function<void()> again_;
  std::vector<double> walls_;
  double units_ = 0.0;     // Wall time of the timed units so far.
  double repeated_ = 0.0;  // Wall time of the repeated set-ups so far.
};

// Peak memory since set-up, read after the warm-up unit: fixed work, so
// the figure does not grow with how many timed units a fast run fits in.
void RecordPeakRss(Result* result) { result->Set("peak_rss_mb", PeakRssMb(), "MB"); }

// Trace bookkeeping shared by the workloads: the overhead of tracing
// one unit of work, and whether the traced stages add up to the
// untraced wall time of the same unit.
void ReportTraceOverhead(const std::vector<double>& untraced,
                         const std::vector<double>& traced,
                         double stage_sum, Result* result) {
  const double base = Median(untraced);
  result->Set("unit.untraced_s", base, "s");
  result->Set("trace.overhead_frac", Median(traced) / base - 1.0, "ratio");
  if (stage_sum > 0.0) {
    const double drift = stage_sum / base - 1.0;
    result->Set("trace.stage_sum_drift_frac", drift, "ratio");
    result->Check(std::abs(drift) <= 0.25,
                  "traced stage sum does not reconcile with the untraced "
                  "wall time");
  }
}

UncertainDataset MakeClustered(size_t n, uint64_t seed) {
  ukc::uncertain::EuclideanInstanceOptions options;
  options.n = n;
  options.z = 4;
  options.dim = 2;
  options.seed = seed;
  return Must(ukc::uncertain::GenerateClusteredInstance(options, 16),
              "GenerateClusteredInstance");
}

// ---------------------------------------------------------------------------
// batch: SolveUncertainKCenter at threads = 4 and threads = 1.

constexpr size_t kBatchK = 8;

ukc::core::UncertainKCenterOptions BatchOptions(int threads) {
  ukc::core::UncertainKCenterOptions options;
  options.k = kBatchK;
  options.rule = ukc::cost::AssignmentRule::kExpectedDistance;
  options.evaluate_unassigned = true;
  options.threads = threads;
  return options;
}

// max_i E[d(P_i, A(i))]: a lower bound on the assigned cost E[max_i].
double MaxExpectedDistance(const UncertainDataset& dataset,
                           const ukc::cost::Assignment& assignment) {
  const auto sites = dataset.flat_sites();
  const auto probabilities = dataset.flat_probabilities();
  const auto offsets = dataset.offsets();
  double best = 0.0;
  for (size_t i = 0; i < dataset.n(); ++i) {
    double expected = 0.0;
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      expected += probabilities[l] * dataset.space().Distance(sites[l], assignment[i]);
    }
    best = std::max(best, expected);
  }
  return best;
}

// Events of one exact sweep and how many lie at or above
// L = max_i min_j d(l_ij): the only ones that can move the max.
struct TailCount {
  uint64_t events = 0;
  uint64_t tail = 0;
};

template <typename DistanceOf>
TailCount CountSweepTail(const UncertainDataset& dataset, DistanceOf distance_of) {
  const auto offsets = dataset.offsets();
  std::vector<double> distance(dataset.total_locations());
  double threshold = 0.0;
  for (size_t i = 0; i < dataset.n(); ++i) {
    double nearest = std::numeric_limits<double>::infinity();
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      distance[l] = distance_of(i, l);
      nearest = std::min(nearest, distance[l]);
    }
    threshold = std::max(threshold, nearest);
  }
  TailCount count;
  count.events = distance.size();
  for (double d : distance) count.tail += d >= threshold ? 1 : 0;
  return count;
}

struct BatchCosts {
  double assigned = 0.0;
  double unassigned = 0.0;
  std::vector<SiteId> centers;
  ukc::cost::Assignment assignment;
};

// The pipeline of SolveUncertainKCenter at threads = 1, one layer call
// at a time under spans.
BatchCosts RedriveBatch(UncertainDataset* dataset, Tracer* tracer) {
  BatchCosts out;
  ScopedSpan solve(tracer, "core.solve");
  std::vector<SiteId> surrogates;
  {
    ScopedSpan span(tracer, "core.surrogate");
    surrogates = Must(ukc::core::BuildSurrogates(dataset, {}), "BuildSurrogates");
  }
  {
    ScopedSpan span(tracer, "solver.cluster");
    out.centers = Must(ukc::solver::SolveCertainKCenter(
                           dataset->shared_space().get(), surrogates, kBatchK),
                       "SolveCertainKCenter")
                      .centers;
  }
  {
    ScopedSpan span(tracer, "cost.assign");
    out.assignment = Must(ukc::cost::AssignExpectedDistance(*dataset, out.centers),
                          "AssignExpectedDistance");
  }
  ukc::cost::ExpectedCostEvaluator evaluator;
  {
    ScopedSpan span(tracer, "cost.assigned_sweep");
    out.assigned = Must(evaluator.AssignedCost(*dataset, out.assignment), "AssignedCost");
  }
  {
    ScopedSpan span(tracer, "cost.unassigned_sweep");
    out.unassigned = Must(evaluator.UnassignedCost(*dataset, out.centers), "UnassignedCost");
  }
  return out;
}

}  // namespace

void RunBatch(const RunConfig& config, Result* result) {
  const size_t n = config.smoke ? 5000 : 1'000'000;
  UncertainDataset dataset = MakeClustered(16, config.seed);  // Replaced below.
  SetupClock setup(
      config, [&] { dataset = MakeClustered(n, config.seed); },
      [&] { MakeClustered(n, config.seed); });

  // Every solve must reproduce the first one's costs bit for bit, at
  // either thread count.
  bool have_reference = false;
  double reference_assigned = 0.0;
  double reference_unassigned = 0.0;
  int bound_checks = 0;
  auto solve = [&](int threads) {
    const Clock::time_point start = Clock::now();
    const ukc::core::UncertainKCenterSolution solution =
        Must(ukc::core::SolveUncertainKCenter(&dataset, BatchOptions(threads)),
             "SolveUncertainKCenter");
    const double wall = SecondsSince(start);
    ++result->attempted;
    if (!have_reference) {
      have_reference = true;
      reference_assigned = solution.expected_cost;
      reference_unassigned = solution.unassigned_cost;
    }
    result->Check(SameBits(solution.expected_cost, reference_assigned) &&
                      SameBits(solution.unassigned_cost, reference_unassigned),
                  "batch: costs differ across thread counts or repetitions");
    result->Check(solution.unassigned_cost <= solution.expected_cost,
                  "batch: unassigned cost exceeds assigned cost");
    if (bound_checks < 2) {  // Once per thread count; the bits pin the rest.
      ++bound_checks;
      const double lower = MaxExpectedDistance(dataset, solution.assignment);
      result->Check(solution.expected_cost >= lower * (1.0 - 1e-12),
                    "batch: assigned cost below max_i E[d(P_i, A(i))]");
    }
    return wall;
  };

  // Warm-up: one untimed pair (checked like every other solve).
  solve(4);
  solve(1);
  RecordPeakRss(result);
  if (config.unit_only) {
    std::vector<double> walls;
    Repeat(config.seconds, 1, [&](int) { walls.push_back(solve(1)); });
    result->Set("unit.untraced_s", Median(walls), "s");
    return;
  }
  if (config.tracer == nullptr) {
    std::vector<double> parallel_walls;
    std::vector<double> serial_walls;
    Repeat(setup.Budget(config.seconds), config.smoke ? 1 : 2, [&](int) {
      parallel_walls.push_back(solve(4));
      serial_walls.push_back(solve(1));
      setup.After(parallel_walls.back() + serial_walls.back());
    });
    setup.Report(result);
    result->Set("call_s", Median(parallel_walls), "s");
    result->Set("batch.solve_s", Median(parallel_walls), "s");
    result->Set("batch.solve_serial_s", Median(serial_walls), "s");
    return;
  }

  // Traced run. The segmented sweep's phase timers fire only when the
  // evaluator borrows a multi-thread pool, so one threads = 4 solve
  // reads them from the registry.
  ukc::obs::MetricsRegistry& registry = ukc::obs::MetricsRegistry::Default();
  registry.Reset();
  solve(4);
  const ukc::obs::RegistrySnapshot snapshot = registry.Snapshot();
  for (const char* phase : {"radix", "invert", "cdf", "combine"}) {
    const ukc::obs::MetricSnapshot* metric =
        snapshot.Find("ukc_sweep_phase_seconds", {{"phase", phase}});
    result->Set(std::string("ukc_sweep_phase_seconds.") + phase,
                metric != nullptr ? metric->histogram.sum : 0.0, "s");
  }

  Tracer& tracer = *config.tracer;
  std::vector<double> untraced;
  std::vector<double> traced;
  BatchCosts last;
  Repeat(config.seconds, 1, [&](int) {
    untraced.push_back(solve(1));
    tracer.BeginRun();
    const Clock::time_point start = Clock::now();
    last = RedriveBatch(&dataset, &tracer);
    traced.push_back(SecondsSince(start));
    ++result->attempted;
    result->Check(SameBits(last.assigned, reference_assigned) &&
                      SameBits(last.unassigned, reference_unassigned),
                  "batch: traced re-drive costs differ from SolveUncertainKCenter");
  });

  double stage_sum = 0.0;
  const std::pair<const char*, const char*> stages[] = {
      {"core.surrogate", "core.surrogate_s"},
      {"solver.cluster", "solver.cluster_s"},
      {"cost.assign", "cost.assign_s"},
      {"cost.assigned_sweep", "cost.assigned_sweep_s"},
      {"cost.unassigned_sweep", "cost.unassigned_sweep_s"}};
  for (const auto& [span, metric] : stages) {
    const double seconds = Median(tracer.Durations(span));
    result->Set(metric, seconds, "s");
    stage_sum += seconds;
  }
  ReportTraceOverhead(untraced, traced, stage_sum, result);
  result->Set("batch.solve_serial_s", Median(untraced), "s");

  // Event counts at the sweep boundary, outside every span.
  const auto sites = dataset.flat_sites();
  const ukc::metric::MetricSpace& space = dataset.space();
  const TailCount unassigned = CountSweepTail(dataset, [&](size_t, size_t l) {
    return space.DistanceToSet(sites[l], last.centers);
  });
  const TailCount assigned = CountSweepTail(dataset, [&](size_t i, size_t l) {
    return space.Distance(sites[l], last.assignment[i]);
  });
  const double events = static_cast<double>(unassigned.events + assigned.events);
  const double tail = static_cast<double>(unassigned.tail + assigned.tail);
  result->Set("cost.sweep_events", events, "count");
  result->Set("cost.sweep_tail_events", tail, "count");
  result->Set("cost.sweep_tail_frac", tail / events, "ratio");
}

// ---------------------------------------------------------------------------
// local_search: LocalSearchUnassigned over an explicit candidate pool.

namespace {

constexpr size_t kSearchK = 8;
constexpr int kSearchThreads = 4;
// Swap budget. Searches on this family run 5-15 improving swaps before
// converging, so a converged search's time mostly measures how far a
// given seed's start happens to be from a local optimum; a fixed budget
// that every seed exhausts measures the same work on every seed.
constexpr size_t kSearchMaxSwaps = 4;

UncertainDataset MakeOutliers(size_t n, uint64_t seed) {
  ukc::uncertain::EuclideanInstanceOptions options;
  options.n = n;
  options.z = 4;
  options.dim = 2;
  options.seed = seed;
  return Must(ukc::uncertain::GenerateOutlierInstance(options, 16),
              "GenerateOutlierInstance");
}

// A seeded sample of the dataset's location sites.
std::vector<SiteId> CandidatePool(const UncertainDataset& dataset, uint64_t seed,
                                  size_t size) {
  std::vector<SiteId> sites = dataset.LocationSites();
  ukc::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51);
  rng.Shuffle(&sites);
  sites.resize(std::min(size, sites.size()));
  std::sort(sites.begin(), sites.end());
  return sites;
}

struct Trajectory {
  std::vector<double> center_coords;
  double cost = 0.0;
  size_t swaps = 0;
};

Trajectory TrajectoryOf(const UncertainDataset& dataset,
                        const std::vector<SiteId>& centers, double cost,
                        size_t swaps) {
  Trajectory out;
  out.cost = cost;
  out.swaps = swaps;
  const ukc::metric::EuclideanSpace* space = dataset.euclidean();
  for (SiteId c : centers) {
    out.center_coords.insert(out.center_coords.end(), space->coords(c),
                             space->coords(c) + space->dim());
  }
  return out;
}

bool SameTrajectory(const Trajectory& a, const Trajectory& b) {
  if (a.swaps != b.swaps || !SameBits(a.cost, b.cost)) return false;
  if (a.center_coords.size() != b.center_coords.size()) return false;
  for (size_t i = 0; i < a.center_coords.size(); ++i) {
    if (!SameBits(a.center_coords[i], b.center_coords[i])) return false;
  }
  return true;
}

// The seed -> UnassignedCost -> SwapCostMatrix rounds of
// LocalSearchUnassigned, one layer call at a time under spans, with the
// same options it sets and the same deterministic argmin.
Trajectory RedriveLocalSearch(UncertainDataset* dataset,
                              const std::vector<SiteId>& pool, Tracer* tracer,
                              size_t* rounds, size_t* table_bytes) {
  ScopedSpan search(tracer, "core.local_search");
  ukc::core::UncertainKCenterSolution seed;
  {
    ScopedSpan span(tracer, "core.seed");
    ukc::core::UncertainKCenterOptions options;
    options.k = kSearchK;
    seed = Must(ukc::core::SolveUncertainKCenter(dataset, options), "seed solve");
  }
  ukc::cost::ParallelCandidateEvaluator::Options parallel_options;
  parallel_options.threads = kSearchThreads;
  parallel_options.evaluator.kdtree_cutover = std::numeric_limits<size_t>::max();
  ukc::cost::ParallelCandidateEvaluator parallel(parallel_options);
  ukc::cost::ExpectedCostEvaluator::Options scalar_options;
  scalar_options.kdtree_cutover = std::numeric_limits<size_t>::max();
  ukc::cost::ExpectedCostEvaluator evaluator(scalar_options);

  std::vector<SiteId> centers = seed.centers;
  double cost = 0.0;
  {
    ScopedSpan span(tracer, "cost.unassigned_sweep");
    cost = Must(evaluator.UnassignedCost(*dataset, centers), "UnassignedCost");
  }
  size_t swaps = 0;
  *rounds = 0;
  *table_bytes = 0;
  for (size_t round = 0; round < kSearchMaxSwaps; ++round) {
    std::vector<double> values;
    {
      ScopedSpan span(tracer, round == 0 ? "cost.swap_round_cold"
                                         : "cost.swap_round_warm");
      values = Must(parallel.SwapCostMatrix(*dataset, centers, pool),
                    "SwapCostMatrix");
    }
    ++*rounds;
    *table_bytes = std::max(*table_bytes, parallel.SwapBaseMemoryBytes());
    double best_value = cost;
    size_t best_position = centers.size();
    SiteId best_replacement = ukc::metric::kInvalidSite;
    for (size_t position = 0; position < centers.size(); ++position) {
      for (size_t c = 0; c < pool.size(); ++c) {
        if (pool[c] == centers[position]) continue;
        const double value = values[position * pool.size() + c];
        if (value < best_value) {
          best_value = value;
          best_position = position;
          best_replacement = pool[c];
        }
      }
    }
    if (best_replacement == ukc::metric::kInvalidSite ||
        cost - best_value < 1e-12 * std::max(1.0, cost)) {
      break;
    }
    centers[best_position] = best_replacement;
    cost = best_value;
    ++swaps;
  }
  return TrajectoryOf(*dataset, centers, cost, swaps);
}

// One searched instance: the dataset, its candidate pool, the seed's
// unassigned cost (which the search may only improve), and the first
// trajectory, which every later search must repeat.
struct SearchInstance {
  UncertainDataset dataset;
  std::vector<SiteId> pool;
  double seed_cost = 0.0;
  bool have_reference = false;
  Trajectory reference;
};

SearchInstance MakeSearchInstance(size_t n, size_t pool_size, uint64_t seed) {
  SearchInstance instance{MakeOutliers(n, seed)};
  instance.pool = CandidatePool(instance.dataset, seed, pool_size);
  return instance;
}

}  // namespace

void RunLocalSearch(const RunConfig& config, Result* result) {
  const size_t n = config.smoke ? 2000 : 100'000;
  const size_t pool_size = config.smoke ? 16 : 64;
  // Two instances per run: search time differs by up to ~20% from one
  // instance to the next (seeds 302-307: 4.4 to 5.4 s), and a run that
  // times both varies less from seed to seed than one that times one.
  const uint64_t seeds[2] = {config.seed, config.seed + 0x9e3779b9ULL};
  std::vector<SearchInstance> instances;
  SetupClock setup(
      config,
      [&] {
        for (uint64_t seed : seeds) instances.push_back(MakeSearchInstance(n, pool_size, seed));
      },
      [&] {
        for (uint64_t seed : seeds) MakeSearchInstance(n, pool_size, seed);
      });

  ukc::core::UncertainKCenterOptions seed_options;
  seed_options.k = kSearchK;
  seed_options.evaluate_unassigned = true;
  for (SearchInstance& instance : instances) {
    instance.seed_cost =
        Must(ukc::core::SolveUncertainKCenter(&instance.dataset, seed_options), "seed solve")
            .unassigned_cost;
  }

  auto search = [&](SearchInstance& instance) {
    ukc::core::UnassignedSearchOptions options;
    options.k = kSearchK;
    options.candidates = instance.pool;
    options.threads = kSearchThreads;
    options.max_swaps = kSearchMaxSwaps;
    const Clock::time_point start = Clock::now();
    const ukc::core::UnassignedSolution solution = Must(
        ukc::core::LocalSearchUnassigned(&instance.dataset, options), "LocalSearchUnassigned");
    const double wall = SecondsSince(start);
    ++result->attempted;
    const Trajectory trajectory = TrajectoryOf(instance.dataset, solution.centers,
                                               solution.expected_cost, solution.swaps);
    if (!instance.have_reference) {
      instance.have_reference = true;
      instance.reference = trajectory;
      ukc::cost::ExpectedCostEvaluator fresh;
      const double recomputed =
          Must(fresh.UnassignedCost(instance.dataset, solution.centers), "UnassignedCost");
      // The swap tables and a fresh sweep agree to rounding (tied events
      // may apply in another order), not necessarily to the bit.
      result->Check(std::abs(recomputed - solution.expected_cost) <=
                        1e-12 * std::max(1.0, recomputed),
                    "local_search: final cost differs from a fresh UnassignedCost");
      result->Check(solution.expected_cost <= instance.seed_cost,
                    "local_search: final cost exceeds the seed cost");
    }
    result->Check(SameTrajectory(trajectory, instance.reference),
                  "local_search: trajectory differs across repetitions");
    return wall;
  };

  // The unit of work of the traced and unit-only runs: one search on the
  // first instance.
  SearchInstance& first = instances[0];
  search(first);  // Warm-up, untimed.
  RecordPeakRss(result);
  if (config.unit_only) {
    std::vector<double> walls;
    Repeat(config.seconds, 1, [&](int) { walls.push_back(search(first)); });
    result->Set("unit.untraced_s", Median(walls), "s");
    return;
  }
  if (config.tracer == nullptr) {
    // One sample is the mean search time over both instances; a pair
    // takes about half the run, so the median needs two samples at least.
    std::vector<double> walls;
    Repeat(setup.Budget(config.seconds), config.smoke ? 1 : 2, [&](int) {
      const double second_s = search(instances[1]);
      setup.After(second_s);
      const double first_s = search(first);
      setup.After(first_s);
      walls.push_back(0.5 * (second_s + first_s));
    });
    setup.Report(result);
    result->Set("call_s", Median(walls), "s");
    result->Set("local_search.search_s", Median(walls), "s",
                std::to_string(first.reference.swaps) + " swaps");
    return;
  }

  Tracer& tracer = *config.tracer;
  ukc::obs::MetricsRegistry& registry = ukc::obs::MetricsRegistry::Default();
  std::vector<double> untraced;
  std::vector<double> traced;
  size_t rounds = 0;
  size_t table_bytes = 0;
  Repeat(config.seconds, 1, [&](int) {
    untraced.push_back(search(first));
    registry.Reset();
    tracer.BeginRun();
    const Clock::time_point start = Clock::now();
    const Trajectory trajectory =
        RedriveLocalSearch(&first.dataset, first.pool, &tracer, &rounds, &table_bytes);
    traced.push_back(SecondsSince(start));
    ++result->attempted;
    result->Check(SameTrajectory(trajectory, first.reference),
                  "local_search: traced trajectory differs from LocalSearchUnassigned");
  });

  const double seed_s = Median(tracer.Durations("core.seed"));
  const double sweep_s = Median(tracer.Durations("cost.unassigned_sweep"));
  const double cold_s = Median(tracer.Durations("cost.swap_round_cold"));
  const std::vector<double> warm = tracer.Durations("cost.swap_round_warm");
  const double warm_s = warm.empty() ? 0.0 : Median(warm);
  result->Set("core.seed_s", seed_s, "s");
  result->Set("cost.swap_round_cold_s", cold_s, "s");
  result->Set("cost.swap_round_warm_s", warm_s, "s");
  result->Set("cost.swaps_scored",
              static_cast<double>(rounds * kSearchK * first.pool.size()), "count");
  result->Set("cost.swap_table_bytes", static_cast<double>(table_bytes), "bytes");

  // Registry counters of the last re-drive.
  const ukc::obs::RegistrySnapshot snapshot = registry.Snapshot();
  const ukc::obs::MetricSnapshot* hits =
      snapshot.Find("ukc_swap_rollover_total", {{"outcome", "hit"}});
  const double hit_count = hits != nullptr ? hits->counter_value : 0.0;
  const double checks = snapshot.CounterTotal("ukc_swap_rollover_total");
  result->Set("cost.swap_rollover_hit_frac", checks > 0 ? hit_count / checks : 0.0,
              "ratio");
  result->Set("ukc_ladder_escalations_total",
              snapshot.CounterTotal("ukc_ladder_escalations_total"), "count");
  result->Set("ukc_ladder_replayed_events_total",
              snapshot.CounterTotal("ukc_ladder_replayed_events_total"), "count");

  // Stage sum of one trajectory: seed + sweep + cold round + warm rounds.
  const double warm_per_search =
      warm.empty() ? 0.0 : warm_s * static_cast<double>(rounds - 1);
  ReportTraceOverhead(untraced, traced, seed_s + sweep_s + cold_s + warm_per_search,
                      result);
}

// ---------------------------------------------------------------------------
// stream: StreamingUncertainKCenter::SolveFile over a dataset file.

namespace {

constexpr int kStreamThreads = 4;
constexpr size_t kStreamKs[] = {4, 8, 16};

double FileMegabytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<double>(in.tellg()) / 1e6;
}

}  // namespace

void RunStream(const RunConfig& config, Result* result) {
  const size_t n = config.smoke ? 3000 : 250'000;
  const std::string path = config.workdir + "/stream-" +
                           std::to_string(config.seed) + ".ukc";
  // A repeated set-up writes a second file and removes it, so that the
  // solves never read a file that is being rewritten.
  auto write = [&](const std::string& to) {
    const UncertainDataset dataset = MakeClustered(n, config.seed);
    MustOk(ukc::uncertain::SaveDatasetToFile(dataset, to), "SaveDatasetToFile");
  };
  SetupClock setup(
      config, [&] { write(path); },
      [&] {
        write(path + ".again");
        std::remove((path + ".again").c_str());
      });

  ukc::stream::StreamingSolution last;
  auto solve = [&](size_t k) {
    ukc::stream::StreamingOptions options;
    options.k = k;
    options.threads = kStreamThreads;
    const Clock::time_point start = Clock::now();
    last = Must(ukc::stream::StreamingUncertainKCenter(options).SolveFile(path),
                "SolveFile");
    const double wall = SecondsSince(start);
    ++result->attempted;
    result->Check(last.verified_lower <= last.verified_upper,
                  "stream: verified lower bound exceeds the upper bound");
    result->Check(last.ingest_stats.points == n,
                  "stream: points ingested differ from the points written");
    return wall;
  };

  solve(8);  // Warm-up, untimed.
  RecordPeakRss(result);
  if (config.unit_only) {
    std::vector<double> walls;
    Repeat(config.seconds, 1, [&](int) { walls.push_back(solve(8)); });
    result->Set("unit.untraced_s", Median(walls), "s");
    std::remove(path.c_str());
    return;
  }
  if (config.tracer == nullptr) {
    // One solve per repetition, the ks in turn: the budget is then cut
    // after a solve, not after a round of three, and the timed solves
    // fill the run instead of its first half.
    std::vector<double> walls;
    Repeat(setup.Budget(config.seconds), std::size(kStreamKs), [&](int rep) {
      walls.push_back(solve(kStreamKs[rep % std::size(kStreamKs)]));
      setup.After(walls.back());
    });
    setup.Report(result);
    result->Set("call_s", Median(walls), "s");
    result->Set("stream.solve_s", Median(walls), "s");
    std::remove(path.c_str());
    return;
  }

  // Traced run: a bare chunked read pass, a bare ingest, and SolveFile
  // at k = 8 untraced and under a span; verify is the remainder.
  Tracer& tracer = *config.tracer;
  const size_t chunk = ukc::stream::IngestOptions().chunk_size;
  std::vector<double> untraced;
  std::vector<double> traced;
  Repeat(config.seconds, 1, [&](int) {
    tracer.BeginRun();
    {
      ScopedSpan span(&tracer, "uncertain.read");
      ukc::uncertain::DatasetReader reader =
          Must(ukc::uncertain::DatasetReader::Open(path), "DatasetReader::Open");
      UncertainPointBatch batch;
      size_t points = 0;
      while (true) {
        const size_t got = Must(reader.ReadChunk(chunk, &batch), "ReadChunk");
        if (got == 0) break;
        points += got;
      }
      result->Check(points == n, "stream: read pass saw the wrong point count");
    }
    {
      ukc::ThreadPool pool(kStreamThreads);
      ukc::stream::IngestOptions ingest;
      ukc::stream::IngestStats stats;
      ScopedSpan span(&tracer, "stream.ingest");
      Must(ukc::stream::IngestCoreset(2, ukc::stream::ResumableFileFactory(path, chunk),
                                      ingest, &pool, &stats),
           "IngestCoreset");
    }
    untraced.push_back(solve(8));
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(&tracer, "stream.solve_file");
      solve(8);
    }
    traced.push_back(SecondsSince(start));
  });

  const double read_s = Median(tracer.Durations("uncertain.read"));
  const double ingest_s = Median(tracer.Durations("stream.ingest"));
  result->Set("uncertain.read_s", read_s, "s");
  result->Set("uncertain.read_mb_per_s", FileMegabytes(path) / read_s, "MB/s");
  result->Set("stream.ingest_s", ingest_s, "s");
  result->Set("stream.verify_s", Median(untraced) - ingest_s, "s");
  result->Set("stream.coreset_cells", static_cast<double>(last.coreset_cells), "count");
  ReportTraceOverhead(untraced, traced, 0.0, result);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// serve: a TenantRegistry under a closed-loop then an open-loop op mix.

namespace {

constexpr size_t kTenants = 4;
constexpr size_t kServeK = 8;
constexpr uint64_t kWindowPoints = 4096;
constexpr size_t kServeBurst = 1000;

// The op mix is the one `ukc_cli --serve` drives (examples/ukc_cli.cpp):
// of every 100 ops, 55 appends of 1..4 points, 15 drains, 15 centers
// queries, 10 candidate-cost and 5 bracket queries, each query with one
// candidate center. The CLI issues no deletes; here they take 5 of the
// appends' 55, the share of the CLI's rarest op, so that the queries and
// drains keep the CLI's shares. Drains are not drawn at random but run
// on a fixed cadence of 15 per 85 other ops.
constexpr uint64_t kMixAppends = 50;
constexpr uint64_t kMixDeletes = 5;
constexpr uint64_t kMixCenters = 15;
constexpr uint64_t kMixCosts = 10;
constexpr uint64_t kMixBrackets = 5;
constexpr uint64_t kMixOps = kMixAppends + kMixDeletes + kMixCenters + kMixCosts + kMixBrackets;
constexpr uint64_t kMixDrains = 15;
constexpr size_t kCandidates = 1;

// Closed loop: true when a drain follows the i-th op (0-based), which
// spreads kMixDrains drains evenly over every kMixOps ops.
bool DrainFollows(size_t i) {
  return (i + 1) * kMixDrains / kMixOps > i * kMixDrains / kMixOps;
}

// An op slower than this (from due time to completion) has failed.
constexpr double kLatencyLimitSeconds = 0.1;

enum class OpKind { kAppend, kDelete, kCenters, kCost, kBracket };

struct ServeOp {
  OpKind kind = OpKind::kCenters;
  size_t tenant = 0;
  UncertainPointBatch batch;       // kAppend.
  std::vector<double> candidates;  // kCost / kBracket: kCandidates points of dim 2.
  double pick = 0.0;               // kDelete: which acked point.
};

// n points in [-10, 10]^2 with 1..3 locations each.
UncertainPointBatch MakeServeBatch(ukc::Rng& rng, size_t n) {
  UncertainPointBatch batch;
  batch.dim = 2;
  batch.offsets.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    const size_t locations = 1 + rng.Next() % 3;
    std::vector<double> weights(locations);
    double total = 0.0;
    for (double& w : weights) total += w = rng.UniformDouble(0.1, 1.0);
    for (size_t l = 0; l < locations; ++l) {
      batch.coords.push_back(rng.UniformDouble(-10.0, 10.0));
      batch.coords.push_back(rng.UniformDouble(-10.0, 10.0));
      batch.probabilities.push_back(weights[l] / total);
    }
    batch.offsets.push_back(batch.offsets.back() + locations);
  }
  return batch;
}

UncertainPointBatch PointOf(const UncertainPointBatch& batch, size_t i) {
  UncertainPointBatch point;
  point.dim = batch.dim;
  point.norm = batch.norm;
  point.offsets = {0, batch.locations_of(i)};
  point.coords.assign(batch.coords.begin() + batch.offsets[i] * batch.dim,
                      batch.coords.begin() + batch.offsets[i + 1] * batch.dim);
  point.probabilities.assign(batch.probabilities.begin() + batch.offsets[i],
                             batch.probabilities.begin() + batch.offsets[i + 1]);
  return point;
}

std::vector<ServeOp> MakeServeOps(ukc::Rng& rng, size_t count) {
  std::vector<ServeOp> ops(count);
  for (ServeOp& op : ops) {
    op.tenant = rng.Next() % kTenants;
    uint64_t dice = rng.Next() % kMixOps;
    if (dice < kMixAppends) {
      op.kind = OpKind::kAppend;
      op.batch = MakeServeBatch(rng, 1 + rng.Next() % 4);
      continue;
    }
    dice -= kMixAppends;
    if (dice < kMixDeletes) {
      op.kind = OpKind::kDelete;
      op.pick = rng.UniformDouble();
      continue;
    }
    dice -= kMixDeletes;
    if (dice < kMixCenters) {
      op.kind = OpKind::kCenters;
      continue;
    }
    op.kind = dice - kMixCenters < kMixCosts ? OpKind::kCost : OpKind::kBracket;
    op.candidates.resize(2 * kCandidates);
    for (double& c : op.candidates) c = rng.UniformDouble(-10.0, 10.0);
  }
  return ops;
}

struct QueryStats {
  std::vector<double> centers_cold;  // Service seconds of cache misses.
  uint64_t centers = 0;
  uint64_t centers_hits = 0;
  std::vector<double> cost;
  std::vector<double> bracket;
  std::vector<double> drain;
  uint64_t queue_depth_max = 0;
};

// The registry plus the client's own record of what it acked, which
// deletes replay and the final check compares against ServeStats.
class ServeSession {
 public:
  ServeSession(uint64_t seed, Tracer* tracer) : tracer_(tracer), rng_(seed) {
    // One worker: every query fans out over the registry's pool and
    // waits for its slowest worker, and on the 4-vCPU reference box a
    // 4-thread pool made 1000-op bursts both slower (0.059-0.103 s
    // against 0.035-0.053 s) and hostage to host CPU steal (5-20x the
    // steal ticks of one thread), so its numbers tracked the host, not
    // the serving code.
    ukc::serve::RegistryOptions options;
    options.threads = 1;
    registry_ = std::make_unique<ukc::serve::TenantRegistry>(options);
    for (size_t t = 0; t < kTenants; ++t) {
      ukc::serve::TenantConfig tenant;
      tenant.dim = 2;
      tenant.k = kServeK;
      tenant.window_points = kWindowPoints;
      tenant.allow_deletes = true;
      ids_.push_back("tenant-" + std::to_string(t));
      Must(registry_->CreateTenant(ids_.back(), tenant), "CreateTenant");
    }
    mirrors_.resize(kTenants);
  }

  // Fills every tenant's window once, so expiry runs from the first op.
  void Prefill(Result* result) {
    for (size_t t = 0; t < kTenants; ++t) {
      for (uint64_t added = 0; added < kWindowPoints; added += 64) {
        ServeOp op;
        op.kind = OpKind::kAppend;
        op.tenant = t;
        op.batch = MakeServeBatch(rng_, 64);
        Issue(op, result, nullptr);
      }
      Drain(result);
    }
  }

  // Issues one op. Returns false when it was refused or failed.
  bool Issue(const ServeOp& op, Result* result, QueryStats* queries) {
    Mirror& mirror = mirrors_[op.tenant];
    const std::string& id = ids_[op.tenant];
    const ukc::Deadline deadline = ukc::Deadline::After(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(kLatencyLimitSeconds)));
    const Clock::time_point start = Clock::now();
    switch (op.kind) {
      case OpKind::kAppend: {
        ScopedSpan span(tracer_, "serve.append");
        ++appends_submitted_;
        if (!registry_->SubmitAppend(id, op.batch).ok()) return false;
        for (size_t i = 0; i < op.batch.n(); ++i) {
          mirror.pending.push_back(PointOf(op.batch, i));
        }
        return true;
      }
      case OpKind::kDelete: {
        // Targets lie in the newest half window, which no expiry can
        // reach before the next drain applies the delete.
        const uint64_t acked = mirror.acked();
        const uint64_t low = acked > kWindowPoints / 2 ? acked - kWindowPoints / 2 : 0;
        uint64_t index = low + static_cast<uint64_t>(op.pick * (acked - low));
        while (index < acked && mirror.deleted[index - mirror.first]) ++index;
        if (index >= acked) return Issue(Fallback(op), result, queries);
        mirror.deleted[index - mirror.first] = 1;
        ScopedSpan span(tracer_, "serve.delete");
        ++deletes_submitted_;
        return registry_->SubmitDelete(id, index, mirror.points[index - mirror.first]).ok();
      }
      case OpKind::kCenters: {
        ukc::Result<ukc::serve::Tenant::CentersAnswer> answer = [&] {
          ScopedSpan span(tracer_, "serve.centers");
          return registry_->QueryCenters(id, deadline);
        }();
        if (!answer.ok()) return false;
        ++queries_answered_;
        if (queries != nullptr) {
          ++queries->centers;
          if (answer->epoch == mirror.centers_epoch) {
            ++queries->centers_hits;
          } else {
            queries->centers_cold.push_back(SecondsSince(start));
          }
        }
        mirror.centers_epoch = answer->epoch;
        return true;
      }
      case OpKind::kCost: {
        ukc::Result<ukc::serve::Tenant::CostAnswer> answer = [&] {
          ScopedSpan span(tracer_, "serve.cost");
          return registry_->QueryCandidateCost(id, op.candidates, kCandidates, deadline);
        }();
        if (!answer.ok()) return false;
        ++queries_answered_;
        if (queries != nullptr) queries->cost.push_back(SecondsSince(start));
        return true;
      }
      case OpKind::kBracket: {
        ukc::Result<ukc::serve::Tenant::BracketAnswer> answer = [&] {
          ScopedSpan span(tracer_, "serve.bracket");
          return registry_->QueryBracket(id, op.candidates, kCandidates, deadline);
        }();
        if (!answer.ok()) return false;
        ++queries_answered_;
        result->Check(answer->lower <= answer->cost && answer->cost <= answer->upper,
                      "serve: bracket violates lower <= cost <= upper");
        if (queries != nullptr) queries->bracket.push_back(SecondsSince(start));
        return true;
      }
    }
    return false;
  }

  // Applies every queued op; returns the ops it failed to apply.
  uint64_t Drain(Result* result, QueryStats* queries = nullptr) {
    uint64_t depth = 0;
    for (const std::string& id : ids_) {
      depth = std::max<uint64_t>(depth, registry_->QueueDepth(id));
    }
    const Clock::time_point start = Clock::now();
    ukc::serve::DrainResult drained;
    {
      ScopedSpan span(tracer_, "serve.drain");
      drained = registry_->Drain();
    }
    if (queries != nullptr) {
      queries->drain.push_back(SecondsSince(start));
      queries->queue_depth_max = std::max(queries->queue_depth_max, depth);
    }
    applied_ += drained.applied;
    // Every append a drain acks took the next stream indices in
    // submission order.
    for (size_t t = 0; t < kTenants; ++t) {
      Mirror& mirror = mirrors_[t];
      for (UncertainPointBatch& point : mirror.pending) {
        mirror.points.push_back(std::move(point));
        mirror.deleted.push_back(0);
      }
      mirror.pending.clear();
      // Only the window can be deleted from; forget older points.
      while (mirror.points.size() > kWindowPoints) {
        mirror.points.pop_front();
        mirror.deleted.pop_front();
        ++mirror.first;
      }
      result->Check(registry_->FindTenant(ids_[t])->next_index() == mirror.acked(),
                    "serve: tenant stream index differs from the client's count");
    }
    return drained.refused + drained.failed;
  }

  // ServeStats must match the client's own counts.
  void CheckTotals(Result* result) const {
    const ukc::serve::ServeStats& stats = registry_->stats();
    result->Check(stats.appends_submitted == appends_submitted_ &&
                      stats.deletes_submitted == deletes_submitted_ &&
                      stats.queries_answered == queries_answered_ &&
                      stats.appends_applied + stats.deletes_applied == applied_,
                  "serve: ServeStats totals differ from the client's counts");
  }

  uint64_t points_expired() const { return registry_->stats().points_expired; }

 private:
  struct Mirror {
    uint64_t acked() const { return first + points.size(); }
    uint64_t first = 0;                       // Stream index of points[0].
    std::deque<UncertainPointBatch> points;   // The newest acked points.
    std::deque<char> deleted;                 // Parallel to points.
    std::vector<UncertainPointBatch> pending;  // Submitted, not yet acked.
    uint64_t centers_epoch = std::numeric_limits<uint64_t>::max();
  };

  // A delete with nothing left to delete becomes a centers query.
  static ServeOp Fallback(const ServeOp& op) {
    ServeOp query;
    query.kind = OpKind::kCenters;
    query.tenant = op.tenant;
    return query;
  }

  Tracer* tracer_;
  ukc::Rng rng_;
  std::unique_ptr<ukc::serve::TenantRegistry> registry_;
  std::vector<std::string> ids_;
  std::vector<Mirror> mirrors_;
  uint64_t appends_submitted_ = 0;
  uint64_t deletes_submitted_ = 0;
  uint64_t queries_answered_ = 0;
  uint64_t applied_ = 0;
};

// Closed loop: ops back to back, with drains on the mix's cadence.
// Returns the wall time of `count` ops and their drains.
double RunClosedLoop(ServeSession* session, const std::vector<ServeOp>& ops,
                     size_t* cursor, size_t count, Result* result) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < count; ++i) {
    ++result->attempted;
    if (!session->Issue(ops[*cursor % ops.size()], result, nullptr)) ++result->failed;
    ++*cursor;
    if (DrainFollows(i)) result->failed += session->Drain(result);
  }
  result->failed += session->Drain(result);
  return SecondsSince(start);
}

struct OpenLoopOutcome {
  std::vector<double> query_latency;
  std::vector<double> append_latency;
  std::vector<double> lag;
  QueryStats queries;
};

// Open loop: Poisson arrivals at `rate`, drains on a fixed cadence of
// kMixDrains per kMixOps arrivals, each op timed from its due time;
// appends and deletes complete at the end of the drain that acks them.
OpenLoopOutcome RunOpenLoopPhase(ServeSession* session, const std::vector<ServeOp>& ops,
                                 double rate, double seconds, ukc::Rng& rng,
                                 Result* result) {
  const std::vector<double> arrivals = PoissonSchedule(rng, rate, seconds);
  // Merged timeline: op i is event i; drains follow on their cadence.
  std::vector<double> due = arrivals;
  std::vector<long> op_of(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) op_of[i] = static_cast<long>(i);
  const double drain_every = static_cast<double>(kMixOps) / (kMixDrains * rate);
  for (double t = drain_every; t < seconds; t += drain_every) {
    due.push_back(t);
    op_of.push_back(-1);
  }
  std::vector<size_t> order(due.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return due[a] < due[b]; });
  std::vector<double> sorted_due(due.size());
  std::vector<long> sorted_op(due.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_due[i] = due[order[i]];
    sorted_op[i] = op_of[order[i]];
  }

  OpenLoopOutcome out;
  std::vector<size_t> awaiting_ack;  // Events whose op a drain completes.
  std::vector<char> ok(sorted_due.size(), 1);
  auto drain = [&](Clock::time_point origin, std::vector<OpTiming>* timings) {
    result->failed += session->Drain(result, &out.queries);
    const double end = SecondsSince(origin);
    for (size_t e : awaiting_ack) (*timings)[e].end = end;
    awaiting_ack.clear();
  };
  std::vector<OpTiming> timings = RunOpenLoop(
      sorted_due, [&](size_t e, Clock::time_point origin, std::vector<OpTiming>* t) {
        if (sorted_op[e] < 0) {
          drain(origin, t);
          return;
        }
        const ServeOp& op = ops[static_cast<size_t>(sorted_op[e]) % ops.size()];
        ++result->attempted;
        ok[e] = session->Issue(op, result, &out.queries) ? 1 : 0;
        if (ok[e] && (op.kind == OpKind::kAppend || op.kind == OpKind::kDelete)) {
          awaiting_ack.push_back(e);
        }
      });
  if (!awaiting_ack.empty()) {
    const Clock::time_point origin = Clock::now();
    std::vector<OpTiming> tail(timings.size());
    drain(origin, &tail);
    // Charge the closing drain at the time the loop ended plus its length.
    const double loop_end = timings.back().end;
    for (size_t e = 0; e < timings.size(); ++e) {
      if (tail[e].end > 0.0) timings[e].end = loop_end + tail[e].end;
    }
  }

  for (size_t e = 0; e < timings.size(); ++e) {
    if (sorted_op[e] < 0) continue;
    const ServeOp& op = ops[static_cast<size_t>(sorted_op[e]) % ops.size()];
    const double latency = timings[e].Latency();
    out.lag.push_back(timings[e].Lag());
    if (!ok[e] || latency > kLatencyLimitSeconds) ++result->failed;
    if (op.kind == OpKind::kAppend) {
      out.append_latency.push_back(latency);
    } else if (op.kind != OpKind::kDelete) {
      out.query_latency.push_back(latency);
    }
  }
  return out;
}

// The serve figures of the plain run. The traced run measures them the
// same way, so that each metric name has one definition: closed-loop
// bursts of kServeBurst ops on the warmed set-up session for three
// quarters of `seconds`, then the open loop for the rest, untraced.
void MeasureServe(ServeSession* session, const std::vector<ServeOp>& ops,
                  size_t* cursor, double seconds, size_t burst, ukc::Rng& rng,
                  SetupClock* setup, Result* result) {
  std::vector<double> walls;
  Repeat(setup->Budget(seconds * 0.75), 1, [&](int) {
    walls.push_back(RunClosedLoop(session, ops, cursor, burst, result));
    setup->After(walls.back());
  });
  setup->Report(result);
  result->Set("call_s", Median(walls), "s", std::to_string(burst) + "-op burst");
  result->Set("serve.capacity_ops_s", burst / Median(walls), "1/s");
  const OpenLoopOutcome open =
      RunOpenLoopPhase(session, ops, kServeOpenLoopRate, seconds * 0.25, rng, result);
  session->CheckTotals(result);
  result->SetTail("serve.query_p50_ms", ReportTail(open.query_latency, 50.0));
  result->SetTail("serve.query_p99_ms", ReportTail(open.query_latency, 99.0));
  result->SetTail("serve.append_ack_p99_ms", ReportTail(open.append_latency, 99.0));
  const QueryStats& q = open.queries;
  result->SetTail("serve.centers_cold_p99_ms", ReportTail(q.centers_cold, 99.0));
  result->Set("serve.centers_cache_hit_frac",
              q.centers > 0 ? static_cast<double>(q.centers_hits) / q.centers : 0.0,
              "ratio");
  result->SetTail("serve.cost_query_p99_ms", ReportTail(q.cost, 99.0));
  result->SetTail("serve.bracket_query_p99_ms", ReportTail(q.bracket, 99.0));
  result->SetTail("serve.drain_p99_ms", ReportTail(q.drain, 99.0));
  result->Set("serve.queue_depth_max", static_cast<double>(q.queue_depth_max), "count");
  result->SetTail("serve.generator_lag_p99_ms", ReportTail(open.lag, 99.0));
  result->Set("serve.points_expired", static_cast<double>(session->points_expired()),
              "count");
}

}  // namespace

void RunServe(const RunConfig& config, Result* result) {
  ukc::Rng rng(config.seed);
  const std::vector<ServeOp> ops = MakeServeOps(rng, config.smoke ? 2000 : 50'000);
  std::unique_ptr<ServeSession> session;
  SetupClock setup(
      config,
      [&] {
        session = std::make_unique<ServeSession>(config.seed, nullptr);
        session->Prefill(result);
      },
      [&] { ServeSession(config.seed, nullptr).Prefill(result); });
  const double seconds = config.smoke ? 0.5 : config.seconds;
  const size_t burst = config.smoke ? 200 : kServeBurst;
  size_t cursor = 0;

  // Warm-up, untimed: about a second of closed-loop bursts.
  Repeat(config.smoke ? 0.0 : 1.0, 1, [&](int) {
    RunClosedLoop(session.get(), ops, &cursor, burst, result);
  });
  RecordPeakRss(result);

  // One unit of work for the trace and instrumentation overheads: a
  // closed-loop burst on a fresh prefilled session.
  auto unit = [&](Tracer* tracer) {
    ServeSession fresh(config.seed, tracer);
    fresh.Prefill(result);
    size_t fresh_cursor = 0;
    const double wall = RunClosedLoop(&fresh, ops, &fresh_cursor, 2 * burst, result);
    fresh.CheckTotals(result);
    return wall;
  };
  if (config.unit_only) {
    std::vector<double> walls;
    Repeat(seconds, 1, [&](int) { walls.push_back(unit(nullptr)); });
    result->Set("unit.untraced_s", Median(walls), "s");
    return;
  }

  MeasureServe(session.get(), ops, &cursor, seconds, burst, rng, &setup, result);
  if (config.tracer == nullptr) return;

  // Traced run: closed-loop units untraced and under spans, for the
  // tracing overhead.
  Tracer& tracer = *config.tracer;
  std::vector<double> untraced;
  std::vector<double> traced;
  Repeat(seconds / 3.0, 1, [&](int) {
    untraced.push_back(unit(nullptr));
    tracer.BeginRun();
    traced.push_back(unit(&tracer));
  });
  ReportTraceOverhead(untraced, traced, 0.0, result);
}

}  // namespace e2e
