// Tests for the UncertainKCenter facade: configuration handling, bound
// metadata, stage timers, and cross-configuration consistency.

#include "core/uncertain_kcenter.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cost/expected_cost.h"
#include "obs/metrics.h"
#include "uncertain/generators.h"

namespace ukc {
namespace core {
namespace {

using uncertain::UncertainDataset;

UncertainDataset Euclidean(uint64_t seed, size_t n = 30) {
  uncertain::EuclideanInstanceOptions options;
  options.n = n;
  options.z = 4;
  options.dim = 2;
  options.seed = seed;
  return std::move(uncertain::GenerateClusteredInstance(options, 3)).value();
}

UncertainDataset Metric(uint64_t seed, size_t n = 15) {
  auto graph = uncertain::GenerateGridGraph(6, 6, 0.5, 2.0, seed + 77);
  return std::move(uncertain::GenerateMetricInstance(
                       *graph, n, 3, 2.0,
                       uncertain::ProbabilityShape::kRandom, seed))
      .value();
}

TEST(FacadeTest, RejectsInvalidConfigurations) {
  UncertainDataset euclidean = Euclidean(1);
  UncertainKCenterOptions options;
  options.k = 0;
  EXPECT_FALSE(SolveUncertainKCenter(&euclidean, options).ok());
  EXPECT_FALSE(SolveUncertainKCenter(nullptr, {}).ok());

  UncertainDataset metric = Metric(1);
  options.k = 2;
  options.rule = cost::AssignmentRule::kExpectedPoint;
  EXPECT_FALSE(SolveUncertainKCenter(&metric, options).ok());
  options.rule = cost::AssignmentRule::kExpectedDistance;
  options.surrogate = SurrogateKind::kExpectedPoint;
  EXPECT_FALSE(SolveUncertainKCenter(&metric, options).ok());
}

TEST(FacadeTest, EuclideanDefaultsToExpectedPointSurrogate) {
  UncertainDataset dataset = Euclidean(2);
  UncertainKCenterOptions options;
  options.k = 3;
  auto solution = SolveUncertainKCenter(&dataset, options);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->centers.size(), 3u);
  EXPECT_EQ(solution->assignment.size(), dataset.n());
  EXPECT_GT(solution->expected_cost, 0.0);
  EXPECT_EQ(solution->surrogates.size(), dataset.n());
  EXPECT_EQ(solution->certain_algorithm, "gonzalez");
  EXPECT_DOUBLE_EQ(solution->certain_factor, 2.0);
  // ED rule + P̄ surrogate + f=2: Table 1's factor 6 claims.
  ASSERT_EQ(solution->bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(solution->bounds[0].factor, 6.0);
  EXPECT_EQ(solution->bounds[0].reference, BoundReference::kRestrictedOptimum);
  EXPECT_DOUBLE_EQ(solution->bounds[1].factor, 6.0);
  EXPECT_EQ(solution->bounds[1].reference,
            BoundReference::kUnrestrictedOptimum);
}

TEST(FacadeTest, EPRuleGetsFactorFour) {
  UncertainDataset dataset = Euclidean(3);
  UncertainKCenterOptions options;
  options.k = 3;
  options.rule = cost::AssignmentRule::kExpectedPoint;
  auto solution = SolveUncertainKCenter(&dataset, options);
  ASSERT_TRUE(solution.ok());
  ASSERT_FALSE(solution->bounds.empty());
  EXPECT_DOUBLE_EQ(solution->bounds[0].factor, 4.0);
  EXPECT_EQ(solution->bounds[0].theorem, "Theorem 2.2 (EP)");
}

TEST(FacadeTest, MetricDefaultsToOneCenterSurrogate) {
  UncertainDataset dataset = Metric(4);
  UncertainKCenterOptions options;
  options.k = 2;
  options.rule = cost::AssignmentRule::kOneCenter;
  auto solution = SolveUncertainKCenter(&dataset, options);
  ASSERT_TRUE(solution.ok());
  // OC rule, P̃ surrogate, f=2: factor 3+2f = 7 (Theorem 2.7).
  ASSERT_EQ(solution->bounds.size(), 1u);
  EXPECT_DOUBLE_EQ(solution->bounds[0].factor, 7.0);
  EXPECT_EQ(solution->bounds[0].theorem, "Theorem 2.7");
}

TEST(FacadeTest, OwnLocationsWeakensTheConstant) {
  UncertainDataset dataset = Metric(5);
  UncertainKCenterOptions options;
  options.k = 2;
  options.rule = cost::AssignmentRule::kOneCenter;
  options.one_center_candidates = OneCenterCandidates::kOwnLocations;
  auto solution = SolveUncertainKCenter(&dataset, options);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->bounds.size(), 1u);
  // m = 2, f = 2: 2 + m + f(1+m) = 10.
  EXPECT_DOUBLE_EQ(solution->bounds[0].factor, 10.0);
}

TEST(FacadeTest, ModalSurrogateCarriesNoBounds) {
  UncertainDataset dataset = Euclidean(6);
  UncertainKCenterOptions options;
  options.k = 3;
  options.surrogate = SurrogateKind::kModal;
  auto solution = SolveUncertainKCenter(&dataset, options);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->bounds.empty());
}

TEST(FacadeTest, ExpectedCostMatchesIndependentEvaluation) {
  UncertainDataset dataset = Euclidean(7);
  UncertainKCenterOptions options;
  options.k = 3;
  auto solution = SolveUncertainKCenter(&dataset, options);
  ASSERT_TRUE(solution.ok());
  auto recomputed = cost::ExactAssignedCost(dataset, solution->assignment);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_DOUBLE_EQ(solution->expected_cost, *recomputed);
}

TEST(FacadeTest, UnassignedEvaluationOnRequest) {
  UncertainDataset dataset = Euclidean(8);
  UncertainKCenterOptions options;
  options.k = 3;
  auto without = SolveUncertainKCenter(&dataset, options);
  ASSERT_TRUE(without.ok());
  EXPECT_TRUE(std::isnan(without->unassigned_cost));

  options.evaluate_unassigned = true;
  auto with = SolveUncertainKCenter(&dataset, options);
  ASSERT_TRUE(with.ok());
  EXPECT_FALSE(std::isnan(with->unassigned_cost));
  // The free (per-realization) assignment can only help.
  EXPECT_LE(with->unassigned_cost, with->expected_cost + 1e-9);
}

TEST(FacadeTest, AssignmentServesEveryPointWithAChosenCenter) {
  UncertainDataset dataset = Euclidean(9);
  UncertainKCenterOptions options;
  options.k = 4;
  for (auto rule : {cost::AssignmentRule::kExpectedDistance,
                    cost::AssignmentRule::kExpectedPoint,
                    cost::AssignmentRule::kOneCenter}) {
    options.rule = rule;
    auto solution = SolveUncertainKCenter(&dataset, options);
    ASSERT_TRUE(solution.ok()) << cost::AssignmentRuleToString(rule);
    EXPECT_TRUE(cost::ValidateAssignment(dataset, solution->centers,
                                         solution->assignment)
                    .ok());
  }
}

TEST(FacadeTest, RefinedSolverImprovesOrMatchesGonzalez) {
  UncertainDataset dataset_a = Euclidean(10, 40);
  UncertainDataset dataset_b = Euclidean(10, 40);
  UncertainKCenterOptions options;
  options.k = 3;
  auto greedy = SolveUncertainKCenter(&dataset_a, options);
  options.certain.kind = solver::CertainSolverKind::kGonzalezRefined;
  auto refined = SolveUncertainKCenter(&dataset_b, options);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(refined.ok());
  EXPECT_LE(refined->certain_radius, greedy->certain_radius + 1e-12);
}

TEST(FacadeTest, EachCallObservesEveryStageOnce) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with UKC_OBS=OFF";
  UncertainDataset dataset = Euclidean(11);
  UncertainKCenterOptions options;
  options.k = 3;
  const auto stage_count = [](const obs::RegistrySnapshot& snapshot,
                              const char* stage) -> uint64_t {
    const obs::MetricSnapshot* series =
        snapshot.Find("ukc_solve_stage_seconds", {{"stage", stage}});
    return series != nullptr ? series->histogram.count : 0;
  };
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::RegistrySnapshot before = registry.Snapshot();
  ASSERT_TRUE(SolveUncertainKCenter(&dataset, options).ok());
  const obs::RegistrySnapshot after = registry.Snapshot();
  for (const char* stage : {"surrogate", "cluster", "assign", "evaluate"}) {
    EXPECT_EQ(stage_count(after, stage), stage_count(before, stage) + 1)
        << stage;
  }
}

TEST(FacadeTest, KLargerThanNStillWorks) {
  UncertainDataset dataset = Euclidean(12, 4);
  UncertainKCenterOptions options;
  options.k = 9;
  auto solution = SolveUncertainKCenter(&dataset, options);
  ASSERT_TRUE(solution.ok());
  // One center per surrogate: every point served at distance ~ its own
  // spread.
  EXPECT_LE(solution->centers.size(), 4u);
  EXPECT_DOUBLE_EQ(solution->certain_radius, 0.0);
}

TEST(FacadeTest, DeterministicForFixedSeedAndConfig) {
  UncertainDataset dataset_a = Euclidean(13);
  UncertainDataset dataset_b = Euclidean(13);
  UncertainKCenterOptions options;
  options.k = 3;
  auto a = SolveUncertainKCenter(&dataset_a, options);
  auto b = SolveUncertainKCenter(&dataset_b, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->centers, b->centers);
  EXPECT_DOUBLE_EQ(a->expected_cost, b->expected_cost);
}

TEST(FacadeTest, EuclideanWithOneCenterSurrogateGetsMetricBounds) {
  UncertainDataset dataset = Euclidean(14);
  UncertainKCenterOptions options;
  options.k = 3;
  options.surrogate = SurrogateKind::kOneCenter;
  options.rule = cost::AssignmentRule::kOneCenter;
  auto solution = SolveUncertainKCenter(&dataset, options);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->bounds.size(), 1u);
  EXPECT_DOUBLE_EQ(solution->bounds[0].factor, 7.0);  // 3 + 2f, f=2.
}

TEST(BoundsTest, FactorsMatchThePaperWithEpsilonSolver) {
  // f = 1 + eps with eps = 0.25.
  const double f = 1.25;
  auto ed = BoundsFor(true, SurrogateKind::kExpectedPoint,
                      cost::AssignmentRule::kExpectedDistance, f);
  ASSERT_EQ(ed.size(), 2u);
  EXPECT_DOUBLE_EQ(ed[0].factor, 5.25);  // 5 + eps.
  auto ep = BoundsFor(true, SurrogateKind::kExpectedPoint,
                      cost::AssignmentRule::kExpectedPoint, f);
  EXPECT_DOUBLE_EQ(ep[0].factor, 3.25);  // 3 + eps.
  auto metric_ed = BoundsFor(false, SurrogateKind::kOneCenter,
                             cost::AssignmentRule::kExpectedDistance, f);
  ASSERT_EQ(metric_ed.size(), 1u);
  EXPECT_DOUBLE_EQ(metric_ed[0].factor, 7.5);  // 7 + 2 eps.
  auto metric_oc = BoundsFor(false, SurrogateKind::kOneCenter,
                             cost::AssignmentRule::kOneCenter, f);
  EXPECT_DOUBLE_EQ(metric_oc[0].factor, 5.5);  // 5 + 2 eps.
}

TEST(BoundsTest, UnsupportedCombinationsAreEmpty) {
  EXPECT_TRUE(BoundsFor(false, SurrogateKind::kExpectedPoint,
                        cost::AssignmentRule::kExpectedDistance, 2.0)
                  .empty());
  EXPECT_TRUE(BoundsFor(true, SurrogateKind::kModal,
                        cost::AssignmentRule::kExpectedDistance, 2.0)
                  .empty());
  EXPECT_TRUE(BoundsFor(true, SurrogateKind::kExpectedPoint,
                        cost::AssignmentRule::kOneCenter, 2.0)
                  .empty());
  EXPECT_TRUE(BoundsFor(true, SurrogateKind::kExpectedPoint,
                        cost::AssignmentRule::kExpectedDistance, 0.0)
                  .empty());
}

TEST(BoundsTest, ReferenceNames) {
  EXPECT_EQ(BoundReferenceToString(BoundReference::kRestrictedOptimum),
            "restricted-optimum");
  EXPECT_EQ(BoundReferenceToString(BoundReference::kUnrestrictedOptimum),
            "unrestricted-optimum");
}

}  // namespace
}  // namespace core
}  // namespace ukc
