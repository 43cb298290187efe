// Gonzalez's farthest-first traversal [Gonzalez 1985], the greedy
// 2-approximation for k-center that the paper's Remark 3.1 plugs into
// its surrogate pipeline.

#ifndef UKC_SOLVER_GONZALEZ_H_
#define UKC_SOLVER_GONZALEZ_H_

#include <cstddef>

#include "common/result.h"
#include "metric/metric_space.h"
#include "solver/types.h"

namespace ukc {

class ThreadPool;

namespace solver {

/// Options for Gonzalez.
struct GonzalezOptions {
  /// Index (into `sites`) of the first center. The guarantee holds for
  /// any choice; exposing it allows derandomized sweeps in tests.
  size_t first_index = 0;
  /// Borrowed worker pool. Each round relaxes the nearest-center
  /// distances over static contiguous shards of `sites` on this pool;
  /// the result is bitwise the serial one at any thread count. Null =
  /// serial.
  ThreadPool* pool = nullptr;
};

/// Runs farthest-first traversal over `sites`, returning k centers drawn
/// from `sites` with covering radius at most twice the optimal k-center
/// radius (discrete or continuous, in any metric space). O(k·|sites|)
/// distance evaluations. Each round picks the first farthest site in
/// `sites` order (ties go to the lowest position). Fails if k == 0 or
/// sites is empty; when k >= |sites| every site becomes a center
/// (radius 0).
Result<KCenterSolution> Gonzalez(const metric::MetricSpace& space,
                                 const std::vector<metric::SiteId>& sites,
                                 size_t k, const GonzalezOptions& options = {});

}  // namespace solver
}  // namespace ukc

#endif  // UKC_SOLVER_GONZALEZ_H_
