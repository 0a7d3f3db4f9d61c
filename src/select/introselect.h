#ifndef OPAQ_SELECT_INTROSELECT_H_
#define OPAQ_SELECT_INTROSELECT_H_

#include <cstddef>

#include "select/median_of_medians.h"
#include "select/partition.h"
#include "util/check.h"
#include "util/math.h"
#include "util/random.h"

namespace opaq {

/// Quickselect with random pivots and a deterministic fallback: after
/// 2·log2(n) poorly-balanced rounds it switches to median-of-medians, giving
/// expected O(n) with an O(n) worst case. This is the project's default
/// selector (the "small constant, practically very efficient" behaviour the
/// paper wants from [FR75], with a hard worst-case guarantee bolted on).
template <typename K>
K IntroSelect(K* data, size_t n, size_t k, Xoshiro256& rng) {
  OPAQ_CHECK_LT(k, n);
  int budget = 2 * (Log2Floor(n) + 1);
  while (true) {
    if (n <= 16) {
      InsertionSort(data, n);
      return data[k];
    }
    if (budget-- == 0) {
      return MedianOfMediansSelect(data, n, k);
    }
    // Median of three random positions as pivot.
    K a = data[rng.NextBounded(n)];
    K b = data[rng.NextBounded(n)];
    K c = data[rng.NextBounded(n)];
    MedianOfThree(a, b, c);
    // The equal band is only split off when k is not below the pivot.
    const size_t lt = PartitionLess(data, n, b);
    if (k < lt) {
      n = lt;
      continue;
    }
    const size_t gt = lt + PartitionEqual(data + lt, n - lt, b);
    if (k < gt) return data[k];
    data += gt;
    k -= gt;
    n -= gt;
  }
}

}  // namespace opaq

#endif  // OPAQ_SELECT_INTROSELECT_H_
