// Scenario: ambulance staging on a road network (a general metric
// space, exercising the paper's Theorems 2.6/2.7 path).
//
//   build/examples/road_network [--rows=12] [--cols=12] [--n=50] [--k=4]
//
// Incidents occur at uncertain locations: historical data gives, for
// each incident "profile", a distribution over intersections. Distances
// are shortest paths on the weighted road grid — not Euclidean — so the
// expected-point surrogate is unavailable; the pipeline uses each
// profile's 1-center P̃ (the intersection minimizing expected travel
// distance) and the OC assignment, with the 3+2f guarantee of
// Theorem 2.7.

#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "core/uncertain_kcenter.h"
#include "exper/reference.h"
#include "obs/metrics.h"
#include "uncertain/generators.h"

int main(int argc, char** argv) {
  int64_t rows = 12;
  int64_t cols = 12;
  int64_t n = 50;
  int64_t k = 4;
  int64_t seed = 99;
  ukc::FlagParser flags;
  flags.AddInt("rows", &rows, "road-grid rows");
  flags.AddInt("cols", &cols, "road-grid columns");
  flags.AddInt("n", &n, "incident profiles");
  flags.AddInt("k", &k, "ambulance staging posts");
  flags.AddInt("seed", &seed, "random seed");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    std::cerr << status << "\n" << flags.Usage("road_network");
    return 1;
  }

  auto graph = ukc::uncertain::GenerateGridGraph(
      static_cast<int>(rows), static_cast<int>(cols), /*min_weight=*/0.4,
      /*max_weight=*/2.5, static_cast<uint64_t>(seed));
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  std::cout << "Road network: " << (*graph)->Name() << "\n";

  auto dataset = ukc::uncertain::GenerateMetricInstance(
      *graph, static_cast<size_t>(n), /*z=*/4, /*locality_scale=*/3.0,
      ukc::uncertain::ProbabilityShape::kRandom, static_cast<uint64_t>(seed) + 1);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  std::cout << "Incident profiles: " << dataset->ToString() << "\n\n";

  ukc::core::UncertainKCenterOptions options;
  options.k = static_cast<size_t>(k);
  options.rule = ukc::cost::AssignmentRule::kOneCenter;
  options.surrogate = ukc::core::SurrogateKind::kOneCenter;
  auto solution = ukc::core::SolveUncertainKCenter(&dataset.value(), options);
  if (!solution.ok()) {
    std::cerr << solution.status() << "\n";
    return 1;
  }

  std::cout << "Staging posts at intersections:";
  for (auto c : solution->centers) std::cout << " " << c;
  std::cout << "\nExpected worst travel distance: " << solution->expected_cost
            << "\n";
  for (const auto& bound : solution->bounds) {
    std::cout << "Guarantee: <= " << bound.factor
              << " x optimal (" << bound.theorem << ")\n";
  }

  // Certified instance lower bound puts the guarantee in context.
  auto lower = ukc::exper::UnrestrictedLowerBound(&dataset.value(),
                                                  static_cast<size_t>(k));
  if (lower.ok() && lower->combined > 0.0) {
    std::cout << "Certified lower bound on the optimum: " << lower->combined
              << "  => this solution is provably within "
              << solution->expected_cost / lower->combined
              << "x of optimal on THIS instance\n";
  }

  // Timing breakdown, since the all-sites P̃ search dominates on graphs.
  // The one solve's stage times come off the metrics registry; under
  // UKC_OBS=OFF it is empty and the breakdown is omitted.
  if (!ukc::obs::kEnabled) return 0;
  const ukc::obs::RegistrySnapshot snapshot =
      ukc::obs::MetricsRegistry::Default().Snapshot();
  const auto stage_ms = [&snapshot](const char* stage) {
    return snapshot.HistogramSum("ukc_solve_stage_seconds",
                                 {{"stage", stage}}) *
           1e3;
  };
  ukc::TablePrinter timings({"phase", "ms"});
  timings.AddRowValues("P~ surrogates (all-sites search)",
                       stage_ms("surrogate"));
  timings.AddRowValues("k-center on surrogates", stage_ms("cluster"));
  timings.AddRowValues("OC assignment", stage_ms("assign"));
  timings.AddRowValues("exact cost evaluation", stage_ms("evaluate"));
  std::cout << "\n";
  timings.Print(std::cout);
  return 0;
}
