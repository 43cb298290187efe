// Table 1, rows 2-3: restricted assigned k-center in Euclidean space
// under the expected-distance (ED) assignment.
//
//   row 2: Gonzalez-plugged pipeline (f = 2), O(nz + n log k), factor 6
//   row 3: (1+eps)-plugged pipeline (here: exact partition solver,
//          eps = 0), factor 5 + eps
//
// Part A measures empirical ratios against the exact restricted-ED
// optimum on tiny instances. Part B confirms the O(nz + nk) running-time
// scaling of the Gonzalez pipeline on large instances.

#include <iostream>

#include "bench/bench_common.h"

namespace ukc {
namespace {

int Run() {
  bench::PrintBanner(
      "Table 1, rows 2-3 — restricted assigned k-center, Euclidean, ED rule",
      "factor 6 with Gonzalez (f=2); factor 5+eps with a (1+eps) solver "
      "(Theorem 2.2, ED)");

  // Part A: approximation ratios on tiny instances vs the exact
  // restricted-ED optimum (dense candidate set).
  TablePrinter table({"certain solver", "claimed", "family", "ratio mean",
                      "ratio max", "ok", "ms/instance"});
  bool all_ok = true;
  struct Config {
    solver::CertainSolverKind kind;
    double claimed;
    const char* label;
  };
  for (const Config& config :
       {Config{solver::CertainSolverKind::kGonzalez, 6.0, "gonzalez (f=2)"},
        Config{solver::CertainSolverKind::kExact, 5.0, "exact (f=1, eps=0)"},
        Config{solver::CertainSolverKind::kGridEpsilon, 5.25,
               "grid-eps (f=1.25)"}}) {
    for (auto family : {exper::Family::kUniform, exper::Family::kClustered,
                        exper::Family::kOutlier}) {
      RunningStats ratios;
      RunningStats times;
      for (uint64_t seed = 1; seed <= 8; ++seed) {
        exper::InstanceSpec spec;
        spec.family = family;
        spec.n = 5;
        spec.z = 3;
        spec.dim = 2;
        spec.k = 2;
        spec.spread = 0.8;
        spec.seed = seed;
        core::UncertainKCenterOptions options;
        options.k = spec.k;
        options.rule = cost::AssignmentRule::kExpectedDistance;
        options.certain.kind = config.kind;
        auto sample = bench::MeasureAgainstTinyRestricted(spec, options);
        UKC_CHECK(sample.ok()) << sample.status();
        ratios.Add(sample->ratio);
        times.Add(sample->seconds * 1e3);
      }
      const bool ok = ratios.Max() <= config.claimed + 1e-9;
      all_ok = all_ok && ok;
      table.AddRowValues(config.label, config.claimed,
                         exper::FamilyToString(family), ratios.Mean(),
                         ratios.Max(), ok ? "yes" : "NO", times.Mean());
    }
  }
  table.Print(std::cout);

  // Part B: running-time scaling of the Gonzalez pipeline (row 2 claims
  // O(nz + n log k); our Gonzalez is O(nz + nk)).
  std::cout << "\nRunning time of the Gonzalez ED pipeline (excludes the "
               "exact cost evaluation; the paper's algorithm returns centers "
               "only):\n";
  TablePrinter scaling({"n", "z", "k", "surrogate ms", "cluster ms",
                        "assign ms", "total ms"});
  for (size_t n : {1000u, 2000u, 4000u, 8000u}) {
    exper::InstanceSpec spec;
    spec.family = exper::Family::kClustered;
    spec.n = n;
    spec.z = 5;
    spec.k = 8;
    spec.seed = 3;
    auto dataset = exper::MakeInstance(spec);
    UKC_CHECK(dataset.ok()) << dataset.status();
    core::UncertainKCenterOptions options;
    options.k = spec.k;
    options.rule = cost::AssignmentRule::kExpectedDistance;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    const obs::RegistrySnapshot before = registry.Snapshot();
    auto solution = core::SolveUncertainKCenter(&dataset.value(), options);
    UKC_CHECK(solution.ok()) << solution.status();
    const obs::RegistrySnapshot after = registry.Snapshot();
    const double surrogate_ms =
        bench::StageMillisBetween(before, after, "surrogate");
    const double cluster_ms =
        bench::StageMillisBetween(before, after, "cluster");
    const double assign_ms = bench::StageMillisBetween(before, after, "assign");
    scaling.AddRowValues(static_cast<int>(n), 5, 8, surrogate_ms, cluster_ms,
                         assign_ms, surrogate_ms + cluster_ms + assign_ms);
  }
  scaling.Print(std::cout);
  std::cout << (all_ok ? "\nAll measured ratios within the claimed factors.\n"
                       : "\nBOUND VIOLATION DETECTED\n");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace ukc

int main() { return ukc::Run(); }
