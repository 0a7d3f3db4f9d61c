#ifndef OPAQ_SELECT_MEDIAN_OF_MEDIANS_H_
#define OPAQ_SELECT_MEDIAN_OF_MEDIANS_H_

#include <cstddef>

#include "select/partition.h"
#include "util/check.h"

namespace opaq {

/// Deterministic worst-case O(n) selection — Blum, Floyd, Pratt, Rivest,
/// Tarjan, "Time Bounds for Selection" (1972), cited by the paper as [ea72]
/// and used in §2.1 to bound the sample phase at O(m log s) worst case.
///
/// Rearranges `data[0..n)` so that `data[k]` is the k-th smallest (0-based)
/// and everything before/after it is `<=`/`>=`. Returns the selected value.
///
/// Implementation notes: the median of each group of 5, found by a
/// branch-free network, is swapped to a prefix; pivot = recursive median of
/// that prefix, then a three-way partition so that duplicate-heavy inputs
/// stay linear (the equal band is only split off when k is not below the
/// pivot).
template <typename K>
K MedianOfMediansSelect(K* data, size_t n, size_t k) {
  OPAQ_CHECK_LT(k, n);
  while (true) {
    if (n <= 16) {
      InsertionSort(data, n);
      return data[k];
    }
    // Move the median of each full group of 5 into the prefix; seven
    // compare-exchanges leave it in the group's middle slot.
    static constexpr size_t kNetwork[7][2] = {{0, 1}, {3, 4}, {0, 3}, {1, 4},
                                              {1, 2}, {2, 3}, {1, 2}};
    const size_t groups = n / 5;
    for (size_t g = 0; g < groups; ++g) {
      K* group = data + 5 * g;
      for (const auto& pair : kNetwork) {
        CompareExchange(group[pair[0]], group[pair[1]]);
      }
      std::swap(data[g], group[2]);
    }
    // Median of the group medians (recursive call on the prefix).
    const K pivot = MedianOfMediansSelect(data, groups, groups / 2);
    const size_t lt = PartitionLess(data, n, pivot);
    if (k < lt) {
      n = lt;
      continue;
    }
    const size_t gt = lt + PartitionEqual(data + lt, n - lt, pivot);
    if (k < gt) return data[k];
    data += gt;
    k -= gt;
    n -= gt;
  }
}

}  // namespace opaq

#endif  // OPAQ_SELECT_MEDIAN_OF_MEDIANS_H_
