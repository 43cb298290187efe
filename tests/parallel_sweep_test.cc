// Parity suite for the segmented exact-sweep engine, the compacted
// snapshot ladder, and double-buffered ingestion. Everything here is
// EXPECT_EQ on doubles — no tolerance anywhere — against a reference
// the test builds itself:
//  * the segmented sweep (parallel radix sort + per-variable CDF
//    trajectories + ordered serial combine), which runs when an
//    evaluator borrows a pool of more than one thread and the sweep
//    holds at least cost::kSegmentedSweepMinEvents events, must be
//    bitwise identical to an evaluator with no sweep_pool (the serial
//    sort-sweep) at every thread count;
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
#include "uncertain/dataset.h"
#include "uncertain/uncertain_point.h"

namespace ukc {
namespace {

using metric::SiteId;
using testing_reference::FillLadder;
using testing_reference::ReferenceSwapCostMatrix;

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

// How many times the segmented engine's radix phase has run in this
// process (its timer lands in ukc_sweep_phase_seconds{phase=radix}).
uint64_t SegmentedSweeps() {
  return obs::MetricsRegistry::Default()
      .GetHistogram("ukc_sweep_phase_seconds",
                    "Segmented exact-sweep phase wall time",
                    {{"phase", "radix"}})
      ->Snapshot()
      .count;
}

// Runs `evaluate` on an evaluator borrowing a pool of each thread count
// and expects the no-pool evaluator's value bit for bit — and, with
// the observability layer compiled in, that a pool of more than one
// thread really took the segmented engine.
template <typename Evaluate>
void ExpectSegmentedMatchesSerial(const Evaluate& evaluate,
                                  const std::string& label) {
  cost::ExpectedCostEvaluator serial;
  const double reference = evaluate(serial);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    cost::ExpectedCostEvaluator::Options options;
    options.sweep_pool = &pool;
    cost::ExpectedCostEvaluator segmented(options);
    const uint64_t before = SegmentedSweeps();
    EXPECT_EQ(reference, evaluate(segmented))
        << label << " threads=" << threads;
    if (obs::kEnabled && threads > 1) {
      EXPECT_GT(SegmentedSweeps(), before)
          << label << " threads=" << threads
          << ": the segmented engine did not run";
    }
  }
}

// The segmented engine vs the serial sweep over random instances of at
// least kSegmentedSweepMinEvents events, across dimensions, (k, z)
// shapes, both objectives, and thread counts.
TEST(ParallelSweepTest, SegmentedSweepMatchesSerialBitwise) {
  struct Shape {
    size_t n;
    size_t k;
    size_t z;
  };
  const Shape shapes[] = {{8200, 8, 4}, {4100, 5, 8}};
  uint64_t seed = 500;
  for (size_t dim : {1u, 2u, 3u, 8u}) {
    for (const Shape& shape : shapes) {
      ++seed;
      const auto dataset = MakeDataset(shape.n, dim, shape.z, seed);
      ASSERT_GE(dataset.total_locations(), cost::kSegmentedSweepMinEvents);
      const auto centers = SomeCenters(dataset, shape.k);
      const cost::Assignment assignment(dataset.n(), centers[0]);
      const std::string label =
          "dim=" + std::to_string(dim) + " n=" + std::to_string(shape.n);
      ExpectSegmentedMatchesSerial(
          [&](cost::ExpectedCostEvaluator& evaluator) {
            return *evaluator.UnassignedCost(dataset, centers);
          },
          label + " unassigned");
      ExpectSegmentedMatchesSerial(
          [&](cost::ExpectedCostEvaluator& evaluator) {
            return *evaluator.AssignedCost(dataset, assignment);
          },
          label + " assigned");
    }
  }
}

// Below kSegmentedSweepMinEvents the serial sweep runs even with a
// many-thread pool.
TEST(ParallelSweepTest, SmallSweepsStaySerial) {
  if (!obs::kEnabled) GTEST_SKIP() << "needs the observability layer";
  const auto dataset = MakeDataset(2000, 2, 4, 61);  // 8000 events.
  ASSERT_LT(dataset.total_locations(), cost::kSegmentedSweepMinEvents);
  const auto centers = SomeCenters(dataset, 4);
  ThreadPool pool(8);
  cost::ExpectedCostEvaluator::Options options;
  options.sweep_pool = &pool;
  cost::ExpectedCostEvaluator evaluator(options);
  const uint64_t before = SegmentedSweeps();
  ASSERT_TRUE(evaluator.UnassignedCost(dataset, centers).ok());
  EXPECT_EQ(SegmentedSweeps(), before);
}

// Segment/boundary edge cases at engine scale: a stream where every key
// is equal (one distinct value, maximal ties — where an unstable sort
// would diverge), and a single variable holding every event.
TEST(ParallelSweepTest, EdgeCaseStreamsMatch) {
  const double origin[2] = {0.0, 0.0};
  {
    const auto dataset = MakePlaneDataset(8192, 4, /*identical=*/true, 11);
    ASSERT_GE(dataset.total_locations(), cost::kSegmentedSweepMinEvents);
    const std::vector<SiteId> centers = {
        dataset.euclidean()->AddCoords(origin)};
    ExpectSegmentedMatchesSerial(
        [&](cost::ExpectedCostEvaluator& evaluator) {
          return *evaluator.UnassignedCost(dataset, centers);
        },
        "all keys equal");
  }
  {
    // One point, 32768 equally likely locations (1/32768 is a power of
    // two, so the probabilities sum to exactly 1).
    auto space = std::make_shared<metric::EuclideanSpace>(2);
    Rng rng(12);
    const size_t z = cost::kSegmentedSweepMinEvents;
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
    const auto dataset =
        std::move(uncertain::UncertainDataset::Build(space, std::move(points)))
            .value();
    const std::vector<SiteId> centers = {
        dataset.euclidean()->AddCoords(origin)};
    ExpectSegmentedMatchesSerial(
        [&](cost::ExpectedCostEvaluator& evaluator) {
          return *evaluator.UnassignedCost(dataset, centers);
        },
        "one point, uniform locations");
  }
}

// The generic ExpectedMaxOfIndependent entry point (non-CSR fill, its
// own variable offsets), with heavy cross-variable ties.
TEST(ParallelSweepTest, ExpectedMaxOfIndependentMatches) {
  Rng rng(321);
  std::vector<cost::DiscreteDistribution> distributions;
  size_t events = 0;
  while (events < cost::kSegmentedSweepMinEvents + 1000) {
    cost::DiscreteDistribution d;
    const size_t support = 1 + static_cast<size_t>(rng.UniformDouble() * 5.0);
    double remaining = 1.0;
    for (size_t s = 0; s < support; ++s) {
      // Quantized values: plenty of exact ties within and across
      // variables.
      const double value = std::floor(rng.UniformDouble() * 8.0) / 4.0;
      const double p = s + 1 == support ? remaining : remaining / 2.0;
      remaining -= p;
      d.emplace_back(value, p);
    }
    events += d.size();
    distributions.push_back(std::move(d));
  }
  ExpectSegmentedMatchesSerial(
      [&](cost::ExpectedCostEvaluator& evaluator) {
        return evaluator.ExpectedMaxOfIndependent(distributions);
      },
      "ExpectedMaxOfIndependent");
}

// The consumer: SolveUncertainKCenter's exact evaluations borrow the
// run's pool, so at engine scale threads > 1 goes through the segmented
// sweep — both costs must equal the threads = 1 run and a no-pool
// evaluator bit for bit.
TEST(ParallelSweepTest, SolveCostsAreThreadCountInvariant) {
  // Each solve mints its surrogate sites into the dataset's space, so
  // every run gets a fresh copy of the instance (same site ids).
  const auto solve = [](int threads, uncertain::UncertainDataset* dataset) {
    core::UncertainKCenterOptions options;
    options.k = 6;
    options.evaluate_unassigned = true;
    options.threads = threads;
    auto solution = core::SolveUncertainKCenter(dataset, options);
    EXPECT_TRUE(solution.ok()) << solution.status();
    return std::move(solution).value();
  };
  auto dataset = MakeDataset(8200, 2, 4, 808);
  ASSERT_GE(dataset.total_locations(), cost::kSegmentedSweepMinEvents);
  const auto reference = solve(1, &dataset);
  cost::ExpectedCostEvaluator serial;
  EXPECT_EQ(reference.expected_cost,
            *serial.AssignedCost(dataset, reference.assignment));
  EXPECT_EQ(reference.unassigned_cost,
            *serial.UnassignedCost(dataset, reference.centers));
  for (int threads : {2, 4, 8}) {
    auto fresh = MakeDataset(8200, 2, 4, 808);
    const uint64_t before = SegmentedSweeps();
    const auto solution = solve(threads, &fresh);
    EXPECT_EQ(solution.centers, reference.centers) << "threads=" << threads;
    EXPECT_EQ(solution.expected_cost, reference.expected_cost)
        << "threads=" << threads;
    EXPECT_EQ(solution.unassigned_cost, reference.unassigned_cost)
        << "threads=" << threads;
    if (obs::kEnabled) {
      EXPECT_GE(SegmentedSweeps(), before + 2) << "threads=" << threads;
    }
  }
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
