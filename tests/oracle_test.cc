// Oracle suite for the exact sweeps: on instances small enough to
// enumerate (Π z_i <= 2e4 realizations, up to 140 points), every exact
// cost — AssignedCost, UnassignedCost, ExpectedMaxOfIndependent over the
// same per-location distances, and every SwapCostMatrix value — must
// agree with the realization enumeration of cost/expected_cost.h
// (BruteForceAssignedCost / BruteForceUnassignedCost) to 1e-12
// relative. Covers every exper family, the Euclidean families under the
// L1, L2 and L∞ norms, and the grid-graph shortest-path metric.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cost/expected_cost.h"
#include "cost/expected_cost_evaluator.h"
#include "cost/parallel_evaluator.h"
#include "exper/instances.h"
#include "metric/euclidean_space.h"
#include "solver/gonzalez.h"
#include "sweep_reference.h"
#include "uncertain/dataset.h"
#include "uncertain/uncertain_point.h"

namespace ukc {
namespace {

using metric::SiteId;
using testing_reference::RelativeGap;

constexpr double kTolerance = 1e-12;

// The same instance with all but `full` evenly spaced points (the last
// one included) collapsed to their first location (probability 1) — so
// n can span several kCdfProductBlock blocks while Π z_i stays
// enumerable — and, when `norm` is set, its Euclidean sites copied into
// a space under that norm (site ids preserved).
uncertain::UncertainDataset Rebuild(const uncertain::UncertainDataset& dataset,
                                    size_t full,
                                    std::optional<metric::Norm> norm) {
  std::shared_ptr<metric::MetricSpace> space = dataset.shared_space();
  if (norm.has_value()) {
    const metric::EuclideanSpace& source = *dataset.euclidean();
    auto normed = std::make_shared<metric::EuclideanSpace>(source.dim(), *norm);
    for (SiteId site = 0; site < source.num_sites(); ++site) {
      normed->AddCoords(source.coords(site));
    }
    space = std::move(normed);
  }
  const size_t stride = dataset.n() / full;
  std::vector<uncertain::UncertainPoint> points;
  for (size_t i = 0; i < dataset.n(); ++i) {
    const auto point = dataset.point(i);
    std::vector<uncertain::Location> locations;
    const size_t from_end = dataset.n() - 1 - i;
    if (from_end % stride != 0 || from_end / stride >= full) {
      locations.push_back({point.location(0).site, 1.0});
    } else {
      for (size_t j = 0; j < point.num_locations(); ++j) {
        locations.push_back(point.location(j));
      }
    }
    points.push_back(
        std::move(uncertain::UncertainPoint::Build(std::move(locations)))
            .value());
  }
  return std::move(uncertain::UncertainDataset::Build(space, std::move(points)))
      .value();
}

struct OracleCase {
  std::string label;
  uncertain::UncertainDataset dataset;
};

// Every exper family at a size the enumeration can afford, the
// Euclidean ones under each norm; the last shape spreads 6 uncertain
// points over three product blocks of 140 points.
std::vector<OracleCase> OracleCases() {
  struct Shape {
    size_t n;
    size_t z;
    size_t full;  // Points keeping all z locations.
  };
  const Shape shapes[] = {{7, 4, 7}, {12, 2, 12}, {4, 9, 4}, {140, 4, 6}};
  const exper::Family families[] = {
      exper::Family::kUniform, exper::Family::kClustered,
      exper::Family::kOutlier, exper::Family::kLine,
      exper::Family::kGridGraph};
  std::vector<OracleCase> cases;
  uint64_t seed = 40;
  for (exper::Family family : families) {
    for (const Shape& shape : shapes) {
      exper::InstanceSpec spec;
      spec.family = family;
      spec.n = shape.n;
      spec.z = shape.z;
      spec.k = 3;
      spec.seed = ++seed;
      const auto dataset = std::move(exper::MakeInstance(spec)).value();
      const std::string label = exper::DescribeInstance(spec) + " full=" +
                                std::to_string(shape.full);
      if (dataset.euclidean() == nullptr) {
        cases.push_back({label, Rebuild(dataset, shape.full, std::nullopt)});
        continue;
      }
      for (metric::Norm norm :
           {metric::Norm::kL1, metric::Norm::kL2, metric::Norm::kLInf}) {
        cases.push_back({label + " " + metric::NormToString(norm),
                         Rebuild(dataset, shape.full, norm)});
      }
    }
  }
  return cases;
}

std::vector<SiteId> Centers(const uncertain::UncertainDataset& dataset,
                            size_t k) {
  const auto sites = dataset.LocationSites();
  return std::move(solver::Gonzalez(dataset.space(), sites, k))
      .value()
      .centers;
}

// Per point, the distribution of its distance to the nearest center.
std::vector<cost::DiscreteDistribution> DistanceDistributions(
    const uncertain::UncertainDataset& dataset,
    const std::vector<SiteId>& centers) {
  std::vector<cost::DiscreteDistribution> distributions;
  for (size_t i = 0; i < dataset.n(); ++i) {
    const auto point = dataset.point(i);
    cost::DiscreteDistribution distribution;
    for (size_t j = 0; j < point.num_locations(); ++j) {
      const uncertain::Location location = point.location(j);
      distribution.emplace_back(
          dataset.space().DistanceToSet(location.site, centers),
          location.probability);
    }
    distributions.push_back(std::move(distribution));
  }
  return distributions;
}

TEST(OracleTest, FreshSweepsMatchEnumeration) {
  for (const OracleCase& c : OracleCases()) {
    SCOPED_TRACE(c.label);
    const auto centers = Centers(c.dataset, 3);
    cost::ExpectedCostEvaluator evaluator;

    const double unassigned = *evaluator.UnassignedCost(c.dataset, centers);
    const double unassigned_oracle =
        *cost::BruteForceUnassignedCost(c.dataset, centers);
    EXPECT_LE(RelativeGap(unassigned, unassigned_oracle), kTolerance)
        << unassigned << " vs " << unassigned_oracle;

    const double expected_max = evaluator.ExpectedMaxOfIndependent(
        DistanceDistributions(c.dataset, centers));
    EXPECT_LE(RelativeGap(expected_max, unassigned_oracle), kTolerance)
        << expected_max << " vs " << unassigned_oracle;

    // An assignment that is not nearest-center for most points, so the
    // assigned cost differs from the unassigned one.
    cost::Assignment assignment(c.dataset.n());
    for (size_t i = 0; i < c.dataset.n(); ++i) {
      assignment[i] = centers[i % centers.size()];
    }
    const double assigned = *evaluator.AssignedCost(c.dataset, assignment);
    const double assigned_oracle =
        *cost::BruteForceAssignedCost(c.dataset, assignment);
    EXPECT_LE(RelativeGap(assigned, assigned_oracle), kTolerance)
        << assigned << " vs " << assigned_oracle;
  }
}

TEST(OracleTest, SwapCostMatrixMatchesEnumeration) {
  for (const OracleCase& c : OracleCases()) {
    SCOPED_TRACE(c.label);
    const auto centers = Centers(c.dataset, 3);
    const auto sites = c.dataset.LocationSites();
    std::vector<SiteId> pool;
    for (size_t s = 0; s < sites.size() && pool.size() < 4; s += 3) {
      pool.push_back(sites[s]);
    }
    cost::ParallelCandidateEvaluator::Options options;
    options.threads = 2;
    cost::ParallelCandidateEvaluator parallel(options);
    const auto values = *parallel.SwapCostMatrix(c.dataset, centers, pool);
    ASSERT_EQ(values.size(), centers.size() * pool.size());
    for (size_t p = 0; p < centers.size(); ++p) {
      for (size_t s = 0; s < pool.size(); ++s) {
        std::vector<SiteId> swapped = centers;
        swapped[p] = pool[s];
        const double oracle =
            *cost::BruteForceUnassignedCost(c.dataset, swapped);
        EXPECT_LE(RelativeGap(values[p * pool.size() + s], oracle), kTolerance)
            << "position " << p << " candidate " << s << ": "
            << values[p * pool.size() + s] << " vs " << oracle;
      }
    }
  }
}

}  // namespace
}  // namespace ukc
