// Figure A (supplementary; the paper reports no figures): running-time
// scaling of the Gonzalez ED pipeline in each input parameter — n
// (points), z (locations per point), k (centers), d (dimension). The
// paper's claim is O(nz + n log k) after the O(nz) surrogate pass; our
// Gonzalez is O(nz + nk), so the series should be near-linear in n, z,
// and k.

#include <iostream>

#include "bench/bench_common.h"

namespace ukc {
namespace {

double RunOnce(size_t n, size_t z, size_t k, size_t dim) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = n;
  spec.z = z;
  spec.dim = dim;
  spec.k = k;
  spec.seed = 7;
  auto dataset = exper::MakeInstance(spec);
  UKC_CHECK(dataset.ok()) << dataset.status();
  core::UncertainKCenterOptions options;
  options.k = k;
  options.rule = cost::AssignmentRule::kExpectedDistance;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::RegistrySnapshot before = registry.Snapshot();
  auto solution = core::SolveUncertainKCenter(&dataset.value(), options);
  UKC_CHECK(solution.ok()) << solution.status();
  const obs::RegistrySnapshot after = registry.Snapshot();
  // Report the algorithm time (surrogate + clustering + assignment);
  // the exact cost evaluation is our measurement apparatus, not part of
  // the paper's algorithm.
  return bench::StageMillisBetween(before, after, "surrogate") +
         bench::StageMillisBetween(before, after, "cluster") +
         bench::StageMillisBetween(before, after, "assign");
}

int Run() {
  bench::PrintBanner(
      "Figure A — running-time scaling of the Gonzalez ED pipeline",
      "O(nz) surrogates + O(nk) clustering + O(nzk) assignment: "
      "near-linear series in each parameter");

  std::cout << "Series 1: vary n (z=4, k=8, d=2)\n";
  TablePrinter by_n({"n", "ms"});
  for (size_t n : {500u, 1000u, 2000u, 4000u, 8000u, 16000u}) {
    by_n.AddRowValues(static_cast<int>(n), RunOnce(n, 4, 8, 2));
  }
  by_n.Print(std::cout);

  std::cout << "\nSeries 2: vary z (n=2000, k=8, d=2)\n";
  TablePrinter by_z({"z", "ms"});
  for (size_t z : {2u, 4u, 8u, 16u, 32u}) {
    by_z.AddRowValues(static_cast<int>(z), RunOnce(2000, z, 8, 2));
  }
  by_z.Print(std::cout);

  std::cout << "\nSeries 3: vary k (n=2000, z=4, d=2)\n";
  TablePrinter by_k({"k", "ms"});
  for (size_t k : {2u, 4u, 8u, 16u, 32u, 64u}) {
    by_k.AddRowValues(static_cast<int>(k), RunOnce(2000, 4, k, 2));
  }
  by_k.Print(std::cout);

  std::cout << "\nSeries 4: vary d (n=2000, z=4, k=8)\n";
  TablePrinter by_d({"d", "ms"});
  for (size_t dim : {1u, 2u, 4u, 8u, 16u}) {
    by_d.AddRowValues(static_cast<int>(dim), RunOnce(2000, 4, 8, dim));
  }
  by_d.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace ukc

int main() { return ukc::Run(); }
