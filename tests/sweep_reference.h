// Test-tree reference for the exact sweep's old arithmetic order: the
// serial sort-sweep the evaluator ran before the threshold filter. It
// sorts EVERY event by (value, location) and telescopes Π F_i through
// one running mantissa/exponent product from the first event on,
// emitting mass at each value group once no CDF is 0. The evaluator's
// canonical order (expected_cost_evaluator.h) folds Π F_i(L) over
// 64-variable blocks instead, so the two agree to rounding, not to the
// bit; tests compare them at 1e-12 relative.

#ifndef UKC_TESTS_SWEEP_REFERENCE_H_
#define UKC_TESTS_SWEEP_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "cost/assignment.h"
#include "cost/expected_cost_evaluator.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace testing_reference {

/// E[max_i X_i] by the old serial sort-sweep. Variable i takes
/// values[l] with probability probabilities[l] for l in
/// [offsets[i], offsets[i + 1]).
inline double OldOrderSweep(const std::vector<double>& values,
                            const std::vector<size_t>& offsets,
                            const std::vector<double>& probabilities) {
  struct Event {
    double value;
    uint32_t index;
    uint32_t location;
    double probability;
  };
  const size_t n = offsets.size() - 1;
  std::vector<Event> events;
  for (size_t i = 0; i < n; ++i) {
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      events.push_back(Event{values[l], static_cast<uint32_t>(i),
                             static_cast<uint32_t>(l), probabilities[l]});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.value != b.value ? a.value < b.value : a.location < b.location;
  });
  std::vector<double> cdf(n, 0.0);
  size_t zeros = n;
  double mantissa = 1.0;
  int exponent = 0;
  KahanSum expectation;
  double previous_cdf_product = 0.0;
  size_t e = 0;
  while (e < events.size()) {
    const double value = events[e].value;
    while (e < events.size() && events[e].value == value) {
      const Event& event = events[e];
      const double old_cdf = cdf[event.index];
      const double new_cdf = old_cdf + event.probability;
      cdf[event.index] = new_cdf;
      if (old_cdf == 0.0) {
        --zeros;
        mantissa *= new_cdf;
      } else {
        mantissa *= new_cdf / old_cdf;
      }
      if (mantissa < 0x1p-16 || mantissa >= 0x1p16) {
        int shift;
        mantissa = std::frexp(mantissa, &shift);
        exponent += shift;
      }
      ++e;
    }
    if (zeros == 0) {
      const double cdf_product = std::ldexp(mantissa, exponent);
      const double mass = cdf_product - previous_cdf_product;
      if (mass > 0.0) expectation.Add(value * mass);
      previous_cdf_product = cdf_product;
    }
  }
  return expectation.Total();
}

/// OldOrderSweep over a dataset, location l of point i taking
/// distance(i, site of l).
template <typename Distance>
double OldOrderDatasetSweep(const uncertain::UncertainDataset& dataset,
                            const Distance& distance) {
  const auto offsets = dataset.offsets();
  const auto sites = dataset.flat_sites();
  std::vector<double> values(dataset.total_locations());
  for (size_t i = 0; i < dataset.n(); ++i) {
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      values[l] = distance(i, sites[l]);
    }
  }
  return OldOrderSweep(
      values, std::vector<size_t>(offsets.begin(), offsets.end()),
      std::vector<double>(dataset.flat_probabilities().begin(),
                          dataset.flat_probabilities().end()));
}

inline double OldOrderAssignedCost(const uncertain::UncertainDataset& dataset,
                                   const cost::Assignment& assignment) {
  return OldOrderDatasetSweep(dataset, [&](size_t i, metric::SiteId site) {
    return dataset.space().Distance(site, assignment[i]);
  });
}

inline double OldOrderUnassignedCost(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers) {
  return OldOrderDatasetSweep(dataset, [&](size_t, metric::SiteId site) {
    return dataset.space().DistanceToSet(site, centers);
  });
}

inline double OldOrderExpectedMax(
    const std::vector<cost::DiscreteDistribution>& distributions) {
  std::vector<double> values;
  std::vector<double> probabilities;
  std::vector<size_t> offsets = {0};
  for (const auto& distribution : distributions) {
    for (const auto& [value, probability] : distribution) {
      values.push_back(value);
      probabilities.push_back(probability);
    }
    offsets.push_back(values.size());
  }
  return OldOrderSweep(values, offsets, probabilities);
}

/// |a - b| / max(|b|, tiny): the relative gap the tests bound.
inline double RelativeGap(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

}  // namespace testing_reference
}  // namespace ukc

#endif  // UKC_TESTS_SWEEP_REFERENCE_H_
