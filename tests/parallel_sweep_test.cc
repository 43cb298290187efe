// Parity suite for the threshold-filtered exact sweep, the compacted
// snapshot ladder, and double-buffered ingestion. Against references
// the test builds itself:
//  * the filtered sweep (distance fill, per-variable CDFs at
//    L = max_i min_l d_il and the block products sharded over the
//    evaluator's sweep_pool; tail sort and telescoping serial) must be
//    bitwise identical at every pool size — EXPECT_EQ on doubles — and
//    within 1e-12 relative of the old serial sort-sweep
//    (tests/sweep_reference.h), including on streams whose mass is all
//    tied at L, single variables, z = 1 and negative values;
//  * every SwapCostMatrix value on an outlier-family instance must stay
//    within 3e-13 relative of a fresh UnassignedCost of the swapped set
//    (the swap tables fold Π F_i the canonical way too);
//  * the compacted ladder (rung 0 + deepest rung resident, the
//    intermediate rungs re-derived on escalation by replaying
//    events[deepest.index, rung.index)) must be bitwise identical to
//    tables whose every rung CDF is filled, including on swap matrices
//    whose candidates force escalations;
//  * double-buffered streaming ingestion must extract the bitwise
//    identical coreset as one StreamingCoreset fed point by point.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/uncertain_kcenter.h"
#include "cost/expected_cost_evaluator.h"
#include "cost/parallel_evaluator.h"
#include "exper/instances.h"
#include "metric/euclidean_space.h"
#include "obs/metrics.h"
#include "solver/gonzalez.h"
#include "stream/coreset.h"
#include "stream/ingest.h"
#include "swap_reference.h"
#include "sweep_reference.h"
#include "uncertain/dataset.h"
#include "uncertain/uncertain_point.h"

namespace ukc {
namespace {

using metric::SiteId;
using testing_reference::FillLadder;
using testing_reference::OldOrderAssignedCost;
using testing_reference::OldOrderExpectedMax;
using testing_reference::OldOrderUnassignedCost;
using testing_reference::ReferenceSwapCostMatrix;
using testing_reference::RelativeGap;

const int kThreadCounts[] = {1, 2, 8};

uncertain::UncertainDataset MakeDataset(size_t n, size_t dim, size_t z,
                                        uint64_t seed) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = n;
  spec.z = z;
  spec.dim = dim;
  spec.k = 4;
  spec.seed = seed;
  return std::move(exper::MakeInstance(spec)).value();
}

// A 2-d dataset of n points with z locations each: all at one
// coordinate (every key equal) or uniform in the unit square, with
// probabilities halving per location.
uncertain::UncertainDataset MakePlaneDataset(size_t n, size_t z,
                                             bool identical, uint64_t seed) {
  auto space = std::make_shared<metric::EuclideanSpace>(2);
  Rng rng(seed);
  std::vector<uncertain::UncertainPoint> points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uncertain::Location> locations;
    double remaining = 1.0;
    for (size_t l = 0; l < z; ++l) {
      const double coords[2] = {identical ? 3.0 : rng.UniformDouble(),
                                identical ? 4.0 : rng.UniformDouble()};
      const double p = l + 1 == z ? remaining : remaining / 2.0;
      remaining -= p;
      locations.push_back({space->AddCoords(coords), p});
    }
    points.push_back(std::move(uncertain::UncertainPoint::Build(
                                   std::move(locations)))
                         .value());
  }
  return std::move(uncertain::UncertainDataset::Build(space,
                                                      std::move(points)))
      .value();
}

// A dataset with a dominant near-origin cluster plus a small tight far
// cluster: with centers inside the near cluster, the far points are the
// sweep's bottleneck, and a candidate inside the far cluster improves
// every one of them below rung 0 — the exact shape that forces ladder
// escalations.
uncertain::UncertainDataset MakeBottleneckDataset(size_t near_points,
                                                  size_t far_points, size_t z,
                                                  uint64_t seed) {
  auto space = std::make_shared<metric::EuclideanSpace>(2);
  Rng rng(seed);
  std::vector<uncertain::UncertainPoint> points;
  const auto add_point = [&](double cx, double cy, double spread) {
    std::vector<uncertain::Location> locations;
    double remaining = 1.0;
    for (size_t l = 0; l < z; ++l) {
      const double coords[2] = {cx + spread * (rng.UniformDouble() - 0.5),
                                cy + spread * (rng.UniformDouble() - 0.5)};
      const double p = l + 1 == z ? remaining : remaining * 0.5;
      remaining -= p;
      locations.push_back({space->AddCoords(coords), p});
    }
    points.push_back(std::move(uncertain::UncertainPoint::Build(
                                   std::move(locations)))
                         .value());
  };
  for (size_t i = 0; i < near_points; ++i) add_point(0.0, 0.0, 2.0);
  for (size_t i = 0; i < far_points; ++i) add_point(100.0, 100.0, 0.5);
  return std::move(uncertain::UncertainDataset::Build(space,
                                                      std::move(points)))
      .value();
}

std::vector<SiteId> SomeCenters(const uncertain::UncertainDataset& dataset,
                                size_t k) {
  const auto sites = dataset.LocationSites();
  return std::move(solver::Gonzalez(dataset.space(), sites, k)).value().centers;
}

// Runs `evaluate` on an evaluator borrowing a pool of each thread count
// and expects the no-pool evaluator's value bit for bit, and that value
// within 1e-12 relative of the old-order reference `old_order`.
template <typename Evaluate>
void ExpectPoolInvariantNearOldOrder(const Evaluate& evaluate,
                                     double old_order,
                                     const std::string& label) {
  cost::ExpectedCostEvaluator serial;
  const double reference = evaluate(serial);
  EXPECT_LE(RelativeGap(reference, old_order), 1e-12)
      << label << ": " << reference << " vs old order " << old_order;
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    cost::ExpectedCostEvaluator::Options options;
    options.sweep_pool = &pool;
    cost::ExpectedCostEvaluator pooled(options);
    EXPECT_EQ(reference, evaluate(pooled)) << label << " threads=" << threads;
  }
}

// The filtered sweep vs itself across pool sizes and vs the old order,
// over random instances across dimensions, (k, z) shapes and both
// objectives.
TEST(ParallelSweepTest, FilteredSweepIsPoolInvariantAndNearOldOrder) {
  struct Shape {
    size_t n;
    size_t k;
    size_t z;
  };
  const Shape shapes[] = {{8200, 8, 4}, {4100, 5, 8}, {130, 3, 2}};
  uint64_t seed = 500;
  for (size_t dim : {1u, 2u, 3u, 8u}) {
    for (const Shape& shape : shapes) {
      ++seed;
      const auto dataset = MakeDataset(shape.n, dim, shape.z, seed);
      const auto centers = SomeCenters(dataset, shape.k);
      const cost::Assignment assignment(dataset.n(), centers[0]);
      const std::string label =
          "dim=" + std::to_string(dim) + " n=" + std::to_string(shape.n);
      ExpectPoolInvariantNearOldOrder(
          [&](cost::ExpectedCostEvaluator& evaluator) {
            return *evaluator.UnassignedCost(dataset, centers);
          },
          OldOrderUnassignedCost(dataset, centers), label + " unassigned");
      ExpectPoolInvariantNearOldOrder(
          [&](cost::ExpectedCostEvaluator& evaluator) {
            return *evaluator.AssignedCost(dataset, assignment);
          },
          OldOrderAssignedCost(dataset, assignment), label + " assigned");
    }
  }
}

// The sweep's registry counters: one fresh sweep adds its event count
// to ukc_sweep_events_total and the count of events above L to
// ukc_sweep_tail_events_total, at every pool size including none.
TEST(ParallelSweepTest, SweepCountersSeeEveryEventAndTheTail) {
  if (!obs::kEnabled) GTEST_SKIP() << "needs the observability layer";
  const auto dataset = MakeDataset(2000, 2, 4, 61);
  const auto centers = SomeCenters(dataset, 4);
  // The tail by definition: events strictly above max_i min_l d_il.
  const auto offsets = dataset.offsets();
  const auto sites = dataset.flat_sites();
  double emission_start = 0.0;
  for (size_t i = 0; i < dataset.n(); ++i) {
    double first = std::numeric_limits<double>::infinity();
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      first = std::min(first, dataset.space().DistanceToSet(sites[l], centers));
    }
    emission_start = std::max(emission_start, first);
  }
  uint64_t tail = 0;
  for (SiteId site : sites) {
    tail += dataset.space().DistanceToSet(site, centers) > emission_start;
  }
  ASSERT_GT(tail, 0u);
  ASSERT_LT(tail, dataset.total_locations());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* events = registry.GetCounter("ukc_sweep_events_total");
  obs::Counter* tail_events = registry.GetCounter("ukc_sweep_tail_events_total");
  for (int threads : {0, 1, 8}) {
    ThreadPool pool(std::max(threads, 1));
    cost::ExpectedCostEvaluator::Options options;
    options.sweep_pool = threads > 0 ? &pool : nullptr;
    cost::ExpectedCostEvaluator evaluator(options);
    const uint64_t events_before = events->Value();
    const uint64_t tail_before = tail_events->Value();
    ASSERT_TRUE(evaluator.UnassignedCost(dataset, centers).ok());
    EXPECT_EQ(events->Value() - events_before, dataset.total_locations())
        << "threads=" << threads;
    EXPECT_EQ(tail_events->Value() - tail_before, tail) << "threads=" << threads;
  }
}

// Edge cases: a stream whose every key is equal (all mass tied at L,
// no tail at all), one variable holding every event (L is its minimum,
// nearly everything is tail), z = 1 (every CDF jumps straight to 1),
// and n = 1 with z = 1.
TEST(ParallelSweepTest, EdgeCaseStreamsMatch) {
  const double origin[2] = {0.0, 0.0};
  const auto check = [&](const uncertain::UncertainDataset& dataset,
                         const std::string& label) {
    const std::vector<SiteId> centers = {
        dataset.euclidean()->AddCoords(origin)};
    ExpectPoolInvariantNearOldOrder(
        [&](cost::ExpectedCostEvaluator& evaluator) {
          return *evaluator.UnassignedCost(dataset, centers);
        },
        OldOrderUnassignedCost(dataset, centers), label);
  };
  check(MakePlaneDataset(8192, 4, /*identical=*/true, 11), "all keys equal");
  check(MakePlaneDataset(5000, 1, /*identical=*/false, 13), "z = 1");
  check(MakePlaneDataset(1, 1, /*identical=*/false, 14), "n = 1, z = 1");
  {
    // One point, 32768 equally likely locations (1/32768 is a power of
    // two, so the probabilities sum to exactly 1).
    auto space = std::make_shared<metric::EuclideanSpace>(2);
    Rng rng(12);
    const size_t z = 32768;
    std::vector<uncertain::Location> locations;
    for (size_t l = 0; l < z; ++l) {
      const double coords[2] = {rng.UniformDouble(), rng.UniformDouble()};
      locations.push_back(
          {space->AddCoords(coords), 1.0 / static_cast<double>(z)});
    }
    std::vector<uncertain::UncertainPoint> points;
    points.push_back(
        std::move(uncertain::UncertainPoint::Build(std::move(locations)))
            .value());
    check(std::move(uncertain::UncertainDataset::Build(space,
                                                       std::move(points)))
              .value(),
          "one point, uniform locations");
  }
}

// The generic ExpectedMaxOfIndependent entry point (its own CSR view),
// with heavy cross-variable ties and negative values, plus a one-
// variable and an all-tied call.
TEST(ParallelSweepTest, ExpectedMaxOfIndependentMatches) {
  Rng rng(321);
  std::vector<cost::DiscreteDistribution> distributions;
  size_t events = 0;
  while (events < 40000) {
    cost::DiscreteDistribution d;
    const size_t support = 1 + static_cast<size_t>(rng.UniformDouble() * 5.0);
    double remaining = 1.0;
    for (size_t s = 0; s < support; ++s) {
      // Quantized values in [-1, 1): plenty of exact ties within and
      // across variables.
      const double value = std::floor(rng.UniformDouble() * 8.0) / 4.0 - 1.0;
      const double p = s + 1 == support ? remaining : remaining / 2.0;
      remaining -= p;
      d.emplace_back(value, p);
    }
    events += d.size();
    distributions.push_back(std::move(d));
  }
  const auto check = [](const std::vector<cost::DiscreteDistribution>& d,
                        const std::string& label) {
    ExpectPoolInvariantNearOldOrder(
        [&](cost::ExpectedCostEvaluator& evaluator) {
          return evaluator.ExpectedMaxOfIndependent(d);
        },
        OldOrderExpectedMax(d), label);
  };
  check(distributions, "quantized, negative values");
  check({{{-3.0, 0.25}, {-1.0, 0.5}, {-2.0, 0.25}}}, "one variable");
  check({{{-0.5, 1.0}}, {{-0.5, 0.5}, {-0.5, 0.5}}, {{-0.5, 1.0}}},
        "all mass tied at L");
  // Hand-checked: max(X, Y) with X uniform on {-3, -1}, Y = -2 is -2
  // or -1 with probability 1/2 each.
  cost::ExpectedCostEvaluator evaluator;
  EXPECT_EQ(evaluator.ExpectedMaxOfIndependent(
                std::vector<cost::DiscreteDistribution>{
                    {{-3.0, 0.5}, {-1.0, 0.5}}, {{-2.0, 1.0}}}),
            -1.5);
}

// The consumer: every SolveUncertainKCenter stage borrows the run's
// pool (surrogates, Gonzalez rounds, assignment, the exact sweeps), so
// under each assignment rule the whole solution — surrogates, centers,
// certain radius, assignment and both costs — must equal the
// threads = 1 run bit for bit, and the costs a no-pool evaluator's.
TEST(ParallelSweepTest, SolveCostsAreThreadCountInvariant) {
  // Each solve mints its surrogate sites into the dataset's space, so
  // every run gets a fresh copy of the instance (same site ids).
  const auto solve = [](cost::AssignmentRule rule, int threads,
                        uncertain::UncertainDataset* dataset) {
    core::UncertainKCenterOptions options;
    options.k = 6;
    options.rule = rule;
    options.evaluate_unassigned = true;
    options.threads = threads;
    auto solution = core::SolveUncertainKCenter(dataset, options);
    EXPECT_TRUE(solution.ok()) << solution.status();
    return std::move(solution).value();
  };
  for (cost::AssignmentRule rule :
       {cost::AssignmentRule::kExpectedDistance,
        cost::AssignmentRule::kExpectedPoint,
        cost::AssignmentRule::kOneCenter}) {
    SCOPED_TRACE(cost::AssignmentRuleToString(rule));
    auto dataset = MakeDataset(8200, 2, 4, 808);
    const auto reference = solve(rule, 1, &dataset);
    cost::ExpectedCostEvaluator serial;
    EXPECT_EQ(reference.expected_cost,
              *serial.AssignedCost(dataset, reference.assignment));
    EXPECT_EQ(reference.unassigned_cost,
              *serial.UnassignedCost(dataset, reference.centers));
    for (int threads : {2, 4, 8}) {
      auto fresh = MakeDataset(8200, 2, 4, 808);
      const auto solution = solve(rule, threads, &fresh);
      EXPECT_EQ(solution.surrogates, reference.surrogates)
          << "threads=" << threads;
      EXPECT_EQ(solution.centers, reference.centers) << "threads=" << threads;
      EXPECT_EQ(solution.certain_radius, reference.certain_radius)
          << "threads=" << threads;
      EXPECT_EQ(solution.assignment, reference.assignment)
          << "threads=" << threads;
      EXPECT_EQ(solution.expected_cost, reference.expected_cost)
          << "threads=" << threads;
      EXPECT_EQ(solution.unassigned_cost, reference.unassigned_cost)
          << "threads=" << threads;
    }
  }
}

// The swap tables against fresh sweeps on the outlier family (n ≈ 2e4,
// the shape local search runs on): every SwapCostMatrix value must be
// within 3e-13 relative of a fresh UnassignedCost of the swapped set.
TEST(ParallelSweepTest, SwapMatrixTracksFreshSweepsOnOutliers) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kOutlier;
  spec.n = 20000;
  spec.k = 8;
  spec.seed = 77;
  const auto dataset = std::move(exper::MakeInstance(spec)).value();
  const auto centers = SomeCenters(dataset, 8);
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> pool;
  for (size_t c = 0; c < 12; ++c) {
    pool.push_back(sites[(c * 7919 + 13) % sites.size()]);
  }
  cost::ParallelCandidateEvaluator::Options options;
  options.threads = 4;
  cost::ParallelCandidateEvaluator parallel(options);
  const auto values = *parallel.SwapCostMatrix(dataset, centers, pool);
  cost::ExpectedCostEvaluator fresh;
  double worst = 0.0;
  for (size_t p = 0; p < centers.size(); ++p) {
    for (size_t c = 0; c < pool.size(); ++c) {
      std::vector<SiteId> swapped = centers;
      swapped[p] = pool[c];
      const double want = *fresh.UnassignedCost(dataset, swapped);
      const double gap = RelativeGap(values[p * pool.size() + c], want);
      worst = std::max(worst, gap);
      EXPECT_LE(gap, 3e-13) << "position " << p << " candidate " << c;
    }
  }
  std::ostringstream worst_gap;
  worst_gap << worst;
  RecordProperty("worst_relative_gap", worst_gap.str());
}

// Compacted ladder vs filled ladder over a swap matrix whose
// bottleneck-covering candidates force escalations: every value must
// match bit for bit, at every thread count, and the compact run must
// actually have exercised the replay path.
TEST(ParallelSweepTest, LadderCompactionEscalationParity) {
  const auto dataset = MakeBottleneckDataset(260, 24, 3, 909);
  const auto centers = SomeCenters(dataset, 3);
  // Candidates: a site inside the far (bottleneck) cluster plus a
  // spread of ordinary sites.
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> pool;
  const double far_coords[2] = {100.0, 100.0};
  pool.push_back(dataset.euclidean()->AddCoords(far_coords));
  for (size_t i = 0; i < 10; ++i) {
    pool.push_back(sites[(i * 173) % sites.size()]);
  }

  uint64_t reference_escalations = 0;
  const auto want = ReferenceSwapCostMatrix(dataset, centers, pool,
                                            /*fill_ladder=*/true,
                                            &reference_escalations);
  EXPECT_GT(reference_escalations, 0u);
  for (int threads : kThreadCounts) {
    cost::ParallelCandidateEvaluator::Options options;
    options.threads = threads;
    cost::ParallelCandidateEvaluator compact(options);
    const auto got = *compact.SwapCostMatrix(dataset, centers, pool);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i]) << "task " << i << " threads=" << threads;
    }
    EXPECT_GT(compact.LadderEscalations(), 0u) << "threads=" << threads;
    EXPECT_GT(compact.LadderReplayedEvents(), 0u) << "threads=" << threads;
  }
}

// A multi-round trajectory (round r's accepted argmin feeds round r+1)
// through one compacted-ladder evaluator must track the filled-ladder
// tables bitwise at every round — a single diverging replay would
// compound into different center sets.
TEST(ParallelSweepTest, LadderCompactionTrajectoryParity) {
  constexpr size_t kRounds = 3;
  const auto dataset = MakeBottleneckDataset(200, 16, 2, 414);
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> pool;
  const double far_coords[2] = {100.0, 100.0};
  pool.push_back(dataset.euclidean()->AddCoords(far_coords));
  for (size_t i = 0; i < 8; ++i) pool.push_back(sites[(i * 211) % sites.size()]);

  for (int threads : kThreadCounts) {
    cost::ParallelCandidateEvaluator::Options options;
    options.threads = threads;
    cost::ParallelCandidateEvaluator evaluator(options);
    auto centers = SomeCenters(dataset, 3);
    for (size_t round = 0; round < kRounds; ++round) {
      const auto want =
          ReferenceSwapCostMatrix(dataset, centers, pool, /*fill_ladder=*/true);
      const auto got = *evaluator.SwapCostMatrix(dataset, centers, pool);
      ASSERT_EQ(want, got) << "round " << round << " threads=" << threads;
      double best = std::numeric_limits<double>::infinity();
      size_t best_position = 0;
      SiteId best_candidate = metric::kInvalidSite;
      for (size_t p = 0; p < centers.size(); ++p) {
        for (size_t c = 0; c < pool.size(); ++c) {
          if (pool[c] == centers[p]) continue;
          const double value = got[p * pool.size() + c];
          if (value < best) {
            best = value;
            best_position = p;
            best_candidate = pool[c];
          }
        }
      }
      ASSERT_NE(best_candidate, metric::kInvalidSite);
      centers[best_position] = best_candidate;
    }
  }
}

// The compaction in numbers: a table's resident ladder bytes are at
// least 3x below the same table with every rung filled.
TEST(ParallelSweepTest, LadderMemoryDropsAtLeast3x) {
  const auto dataset = MakeDataset(2000, 2, 4, 31);
  const auto centers = SomeCenters(dataset, 8);
  const size_t total = dataset.total_locations();
  std::vector<uint32_t> point_of(total);
  std::vector<double> base(total);
  for (size_t i = 0; i < dataset.n(); ++i) {
    for (size_t l = dataset.offsets()[i]; l < dataset.offsets()[i + 1]; ++l) {
      point_of[l] = static_cast<uint32_t>(i);
    }
  }
  const std::vector<SiteId> others(centers.begin() + 1, centers.end());
  for (size_t l = 0; l < total; ++l) {
    base[l] = dataset.space().DistanceToSet(dataset.flat_sites()[l], others);
  }
  cost::ExpectedCostEvaluator evaluator;
  cost::ExpectedCostEvaluator::SwapBase compact;
  ASSERT_TRUE(evaluator.BuildSwapBase(dataset, base, point_of, &compact).ok());
  cost::ExpectedCostEvaluator::SwapBase full = compact;
  FillLadder(dataset.n(), &full);
  EXPECT_GE(full.LadderBytes(), 3 * compact.LadderBytes())
      << "full=" << full.LadderBytes() << " compact=" << compact.LadderBytes();
}

// ReserveScratch arms the no-shrink contract and survives a batch of
// evaluations without being lost.
TEST(ParallelSweepTest, ScratchReservationPersists) {
  const auto dataset = MakeDataset(300, 2, 4, 5);
  const auto centers = SomeCenters(dataset, 4);
  cost::ExpectedCostEvaluator evaluator;
  evaluator.ReserveScratch(dataset.n(), dataset.total_locations());
  EXPECT_EQ(evaluator.reserved_scratch(), dataset.total_locations());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(evaluator.UnassignedCost(dataset, centers).ok());
  }
  EXPECT_EQ(evaluator.reserved_scratch(), dataset.total_locations());
}

// Double-buffered ingestion (read group r+1 while group r is
// processed) must hand the shards the exact batch sequence: the
// extracted coreset is bitwise identical to one StreamingCoreset fed
// every point in stream order, for every (threads, chunk, shards)
// combination tried.
TEST(ParallelSweepTest, DoubleBufferedIngestMatchesOneCoreset) {
  const auto dataset = MakeDataset(1200, 2, 3, 88);
  stream::CoresetOptions coreset_options;
  coreset_options.max_cells = 64;
  coreset_options.base_cell_width = 0.25;

  stream::StreamingCoreset reference(2, metric::Norm::kL2, coreset_options);
  {
    auto source = *stream::MakeDatasetBatchSource(&dataset, 100);
    uncertain::UncertainPointBatch batch;
    std::vector<double> expected(2);
    while (*source(&batch)) {
      for (size_t i = 0; i < batch.n(); ++i) {
        const double spread =
            stream::SummarizeBatchPoint(batch, i, expected.data());
        ASSERT_TRUE(
            reference.Add(batch.start_index + i, expected.data(), spread).ok());
      }
    }
  }
  const auto want = reference.ExtractCells();
  ASSERT_GT(want.size(), 1u);

  for (int threads : kThreadCounts) {
    for (size_t chunk : {7u, 64u, 4096u}) {
      for (int shards : {1, 3, 8}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " chunk=" << chunk
                                          << " shards=" << shards);
        ThreadPool pool(threads);
        stream::IngestOptions options;
        options.chunk_size = chunk;
        options.shards = shards;
        options.coreset = coreset_options;
        stream::IngestStats stats;
        auto coreset = *stream::IngestCoreset(
            2, stream::ResumableDatasetFactory(&dataset, chunk), options,
            &pool, &stats);
        EXPECT_EQ(stats.points, dataset.n());
        EXPECT_EQ(stats.batches, (dataset.n() + chunk - 1) / chunk);
        EXPECT_EQ(coreset.level(), reference.level());
        const auto got = coreset.ExtractCells();
        ASSERT_EQ(want.size(), got.size());
        for (size_t c = 0; c < want.size(); ++c) {
          EXPECT_EQ(want[c].min_index, got[c].min_index);
          EXPECT_EQ(want[c].count, got[c].count);
          EXPECT_EQ(want[c].max_spread, got[c].max_spread);
          EXPECT_EQ(want[c].representative, got[c].representative);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ukc
