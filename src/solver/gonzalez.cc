#include "solver/gonzalez.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/thread_pool.h"
#include "metric/euclidean_space.h"

namespace ukc {
namespace solver {

namespace {

// A round's relax pass is split into static contiguous shards of at
// least kMinShardSites sites (smaller passes cost less than a pool
// hand-off) and at most kShardsPerWorker per worker (more than one, so
// a descheduled worker does not hold up the whole round).
constexpr size_t kMinShardSites = 4096;
constexpr size_t kShardsPerWorker = 4;

struct Farthest {
  double distance = -1.0;
  size_t index = 0;
};

// Farthest-first traversal over positions [0, sites.size()), where
// distance(i, c) is the distance between the sites at positions i and
// c. Each round relaxes nearest[] by index over the shards and keeps
// each shard's first strict-`>` maximum; the shard maxima are then
// combined in shard order with the same strict `>`. That is the serial
// scan's choice, ties included, so centers and radius do not depend on
// the pool.
template <typename DistanceFn>
KCenterSolution FarthestFirst(const std::vector<metric::SiteId>& sites,
                              size_t num_centers, size_t first_index,
                              ThreadPool* shared_pool,
                              const DistanceFn& distance) {
  const size_t n = sites.size();
  ScopedPool pool(shared_pool, 1);
  const size_t shards = std::clamp<size_t>(
      n / kMinShardSites, 1, kShardsPerWorker * pool->num_threads());
  const size_t shard_size = (n + shards - 1) / shards;

  KCenterSolution solution;
  solution.algorithm = "gonzalez";
  solution.approx_factor = 2.0;
  solution.centers.reserve(num_centers);

  // nearest[i] = distance from position i to the closest chosen center.
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  std::vector<Farthest> shard_farthest(shards);
  size_t next = first_index;
  for (size_t round = 0; round < num_centers; ++round) {
    solution.centers.push_back(sites[next]);
    const size_t center = next;
    pool->ParallelFor(shards, [&](int, size_t shard) {
      Farthest farthest;
      const size_t end = std::min(n, (shard + 1) * shard_size);
      for (size_t i = std::min(n, shard * shard_size); i < end; ++i) {
        const double d = distance(i, center);
        if (d < nearest[i]) nearest[i] = d;
        if (nearest[i] > farthest.distance) farthest = {nearest[i], i};
      }
      shard_farthest[shard] = farthest;
    });
    Farthest farthest;
    for (const Farthest& candidate : shard_farthest) {
      if (candidate.distance > farthest.distance) farthest = candidate;
    }
    next = farthest.index;
    solution.radius = farthest.distance;
  }
  return solution;
}

}  // namespace

Result<KCenterSolution> Gonzalez(const metric::MetricSpace& space,
                                 const std::vector<metric::SiteId>& sites,
                                 size_t k, const GonzalezOptions& options) {
  if (k == 0) return Status::InvalidArgument("Gonzalez: k must be >= 1");
  if (sites.empty()) return Status::InvalidArgument("Gonzalez: no sites");
  if (options.first_index >= sites.size()) {
    return Status::InvalidArgument("Gonzalez: first_index out of range");
  }
  const size_t num_centers = std::min(k, sites.size());

  KCenterSolution solution;
  const auto* euclidean = dynamic_cast<const metric::EuclideanSpace*>(&space);
  if (euclidean != nullptr) {
    // Gathered flat coordinate block: each round is a pass over
    // contiguous memory, no virtual dispatch in the inner loop.
    const size_t dim = euclidean->dim();
    const metric::Norm norm = euclidean->norm();
    std::vector<double> coords;
    euclidean->GatherCoords(sites, &coords);
    solution = FarthestFirst(
        sites, num_centers, options.first_index, options.pool,
        [&](size_t i, size_t c) {
          return metric::NormDistanceKernel(norm, coords.data() + i * dim,
                                            coords.data() + c * dim, dim);
        });
  } else {
    solution = FarthestFirst(sites, num_centers, options.first_index,
                             options.pool, [&](size_t i, size_t c) {
                               return space.Distance(sites[i], sites[c]);
                             });
  }
  if (num_centers == sites.size()) solution.radius = 0.0;
  return solution;
}

}  // namespace solver
}  // namespace ukc
