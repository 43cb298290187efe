#include "exper/instances.h"

#include <cmath>

#include "common/strings.h"
#include "uncertain/generators.h"

namespace ukc {
namespace exper {

std::string FamilyToString(Family family) {
  switch (family) {
    case Family::kUniform:
      return "uniform";
    case Family::kClustered:
      return "clustered";
    case Family::kOutlier:
      return "outlier";
    case Family::kLine:
      return "line";
    case Family::kGridGraph:
      return "grid-graph";
  }
  return "?";
}

Result<uncertain::UncertainDataset> MakeInstance(const InstanceSpec& spec) {
  if (spec.n == 0 || spec.z == 0 || spec.dim == 0) {
    return Status::InvalidArgument("MakeInstance: n, z and dim must be >= 1");
  }
  if (!std::isfinite(spec.spread) || spec.spread < 0.0) {
    return Status::InvalidArgument(
        "MakeInstance: spread must be finite and >= 0");
  }
  uncertain::EuclideanInstanceOptions options;
  options.n = spec.n;
  options.z = spec.z;
  options.dim = spec.dim;
  options.spread = spec.spread;
  options.shape = uncertain::ProbabilityShape::kRandom;
  options.seed = spec.seed;
  switch (spec.family) {
    case Family::kUniform:
      return uncertain::GenerateUniformInstance(options);
    case Family::kClustered:
      return uncertain::GenerateClusteredInstance(options, spec.k);
    case Family::kOutlier:
      return uncertain::GenerateOutlierInstance(options, spec.k,
                                                /*outlier_probability=*/0.05,
                                                /*outlier_distance=*/30.0);
    case Family::kLine:
      return uncertain::GenerateLineInstance(spec.n, spec.z, /*length=*/100.0,
                                             spec.spread,
                                             uncertain::ProbabilityShape::kRandom,
                                             spec.seed);
    case Family::kGridGraph: {
      // Grid large enough to hold z distinct locations per point with
      // room for structure: side about sqrt(4n), at least 4.
      const int side =
          std::max(4, static_cast<int>(std::ceil(std::sqrt(4.0 * spec.n))));
      UKC_ASSIGN_OR_RETURN(auto graph,
                           uncertain::GenerateGridGraph(side, side, 0.5, 2.0,
                                                        spec.seed * 977 + 13));
      return uncertain::GenerateMetricInstance(
          graph, spec.n, spec.z, /*locality_scale=*/2.0 * spec.spread,
          uncertain::ProbabilityShape::kRandom, spec.seed);
    }
  }
  return Status::InvalidArgument("MakeInstance: unknown family");
}

std::string DescribeInstance(const InstanceSpec& spec) {
  return StrFormat("%s(n=%zu z=%zu d=%zu k=%zu spread=%.3g seed=%llu)",
                   FamilyToString(spec.family).c_str(), spec.n, spec.z, spec.dim,
                   spec.k, spec.spread,
                   static_cast<unsigned long long>(spec.seed));
}

}  // namespace exper
}  // namespace ukc
