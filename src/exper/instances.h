// Named instance families for the experiment harness, so that every
// bench binary and EXPERIMENTS.md describe workloads the same way.

#ifndef UKC_EXPER_INSTANCES_H_
#define UKC_EXPER_INSTANCES_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace exper {

/// The instance families used across the benches.
enum class Family {
  kUniform,     // Euclidean, homes uniform in a box.
  kClustered,   // Euclidean, planted Gaussian clusters.
  kOutlier,     // Clustered + low-probability far locations.
  kLine,        // 1-dimensional.
  kGridGraph,   // Shortest-path metric of a random-weight grid graph.
};

std::string FamilyToString(Family family);

/// A fully specified instance.
struct InstanceSpec {
  Family family = Family::kClustered;
  size_t n = 60;       // Uncertain points.
  size_t z = 4;        // Locations per point.
  size_t dim = 2;      // Euclidean families only.
  size_t k = 3;        // Target number of centers (= planted clusters).
  double spread = 0.5; // Support scale.
  uint64_t seed = 1;
};

/// Materializes the instance. InvalidArgument when n, z or dim is 0
/// or spread is negative or not finite.
Result<uncertain::UncertainDataset> MakeInstance(const InstanceSpec& spec);

/// One-line description for table headers.
std::string DescribeInstance(const InstanceSpec& spec);

}  // namespace exper
}  // namespace ukc

#endif  // UKC_EXPER_INSTANCES_H_
