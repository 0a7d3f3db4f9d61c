#ifndef OPAQ_SELECT_PARTITION_H_
#define OPAQ_SELECT_PARTITION_H_

#include <cstddef>
#include <utility>

namespace opaq {

/// Result of a three-way (Dutch national flag) partition: elements
/// `< pivot` occupy `[0, lt)`, `== pivot` occupy `[lt, gt)`, `> pivot`
/// occupy `[gt, n)`.
struct PartitionBounds {
  size_t lt;
  size_t gt;
};

/// Moves the elements of `data[0..n)` for which `goes_left` holds to the
/// front, in place, and returns how many there are. Branch-free: every
/// element is swapped with the first slot past the front group, which then
/// grows by the predicate's 0 or 1, so no comparison outcome is ever
/// predicted.
template <typename K, typename Pred>
size_t BranchlessPartition(K* data, size_t n, Pred goes_left) {
  size_t front = 0;
  for (size_t i = 0; i < n; ++i) {
    const K key = data[i];
    const bool left = goes_left(key);
    data[i] = data[front];
    data[front] = key;
    front += static_cast<size_t>(left);
  }
  return front;
}

/// Elements `< pivot` to the front of `data[0..n)`; returns their count.
template <typename K>
size_t PartitionLess(K* data, size_t n, const K& pivot) {
  return BranchlessPartition(data, n,
                             [&pivot](const K& key) { return key < pivot; });
}

/// For `data[0..n)` holding no element `< pivot`: elements equal to it to
/// the front; returns their count.
template <typename K>
size_t PartitionEqual(K* data, size_t n, const K& pivot) {
  return BranchlessPartition(
      data, n, [&pivot](const K& key) { return !(pivot < key); });
}

/// Three-way partition of `data[0..n)` around `pivot`, in place: two
/// branch-free passes, `< pivot` to the front, then `== pivot` to the front
/// of the rest.
///
/// Selection on duplicate-heavy inputs (Zipf data, the paper's n/10 forced
/// duplicates, the all-equal worst case) degrades to quadratic with two-way
/// partitioning; the equal band makes every selector in this project robust
/// to ties. Keys are compared with `<` only, so keys that compare equal
/// (such as -0.0 and +0.0) share the equal band.
template <typename K>
PartitionBounds ThreeWayPartition(K* data, size_t n, const K& pivot) {
  const size_t lt = PartitionLess(data, n, pivot);
  return PartitionBounds{lt, lt + PartitionEqual(data + lt, n - lt, pivot)};
}

/// Insertion sort for the small subproblems all selectors bottom out on.
template <typename K>
void InsertionSort(K* data, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    K value = data[i];
    size_t j = i;
    while (j > 0 && value < data[j - 1]) {
      data[j] = data[j - 1];
      --j;
    }
    data[j] = value;
  }
}

/// Orders {a, b} so that `!(b < a)`, without a branch.
template <typename K>
void CompareExchange(K& a, K& b) {
  const bool swap = b < a;
  const K low = swap ? b : a;
  b = swap ? a : b;
  a = low;
}

/// Sorts {a,b,c} in place and leaves the median at `b` (3 comparisons).
template <typename K>
void MedianOfThree(K& a, K& b, K& c) {
  CompareExchange(a, b);
  CompareExchange(b, c);
  CompareExchange(a, b);
}

}  // namespace opaq

#endif  // OPAQ_SELECT_PARTITION_H_
