// Test-tree references for the swap-table contracts of
// cost::ParallelCandidateEvaluator::SwapCostMatrix. Each reference is
// the plain construction the engine's fast paths must reproduce bit for
// bit, built directly on the ExpectedCostEvaluator primitives:
//   - full-rebuild tables: BuildSwapBase from scratch for every
//     position, no rollover, no patching;
//   - full O(N) candidate scans: UnassignedCostSwapPresorted, which
//     computes every location's distance to the candidate;
//   - the 7-rung ladder: FillLadder stores every intermediate rung's
//     CDF, which the compact ladder leaves empty and re-derives on
//     escalation.

#ifndef UKC_TESTS_SWAP_REFERENCE_H_
#define UKC_TESTS_SWAP_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "cost/expected_cost_evaluator.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace testing_reference {

using SwapBase = cost::ExpectedCostEvaluator::SwapBase;

/// Fills every empty rung CDF of `base` by adding up events[0,
/// rung.index) in stream order — the same per-variable additions, in
/// the same order, as the prefix sweep that captured the resident
/// rungs.
inline void FillLadder(size_t n, SwapBase* base) {
  for (SwapBase::Snapshot& rung : base->levels) {
    if (!rung.cdf.empty()) continue;
    rung.cdf.assign(n, 0.0);
    for (size_t e = 0; e < rung.index; ++e) {
      const auto& event = base->events[e];
      rung.cdf[event.index] += event.probability;
    }
  }
}

/// Reference swap matrix: values[p * pool.size() + c] is the cost of
/// `centers` with position p replaced by pool[c], from tables built by
/// BuildSwapBase on base rows "distance to every center but p" and one
/// full-scan UnassignedCostSwapPresorted call per candidate. With
/// fill_ladder, every rung CDF is resident (FillLadder). `escalations`,
/// when set, receives the evaluator's ladder escalation count.
inline std::vector<double> ReferenceSwapCostMatrix(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers,
    const std::vector<metric::SiteId>& pool, bool fill_ladder = false,
    uint64_t* escalations = nullptr) {
  const size_t total = dataset.total_locations();
  const metric::SiteId* sites = dataset.flat_sites().data();
  const size_t* offsets = dataset.offsets().data();
  std::vector<uint32_t> point_of(total);
  for (size_t i = 0; i < dataset.n(); ++i) {
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      point_of[l] = static_cast<uint32_t>(i);
    }
  }
  cost::ExpectedCostEvaluator evaluator;
  std::vector<double> values(centers.size() * pool.size());
  std::vector<double> base(total);
  for (size_t p = 0; p < centers.size(); ++p) {
    // min() is exact, so the order the other centers are folded in
    // cannot change a bit.
    for (size_t l = 0; l < total; ++l) {
      double best = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < centers.size(); ++c) {
        if (c == p) continue;
        best = std::min(best, dataset.space().Distance(sites[l], centers[c]));
      }
      base[l] = best;
    }
    SwapBase table;
    EXPECT_TRUE(evaluator.BuildSwapBase(dataset, base, point_of, &table).ok());
    if (fill_ladder) FillLadder(dataset.n(), &table);
    for (size_t c = 0; c < pool.size(); ++c) {
      auto value = evaluator.UnassignedCostSwapPresorted(dataset, base, table,
                                                         point_of, pool[c]);
      EXPECT_TRUE(value.ok()) << value.status();
      values[p * pool.size() + c] = value.ok() ? *value : -1.0;
    }
  }
  if (escalations != nullptr) *escalations = evaluator.ladder_escalations();
  return values;
}

}  // namespace testing_reference
}  // namespace ukc

#endif  // UKC_TESTS_SWAP_REFERENCE_H_
