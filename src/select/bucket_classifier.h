#ifndef OPAQ_SELECT_BUCKET_CLASSIFIER_H_
#define OPAQ_SELECT_BUCKET_CLASSIFIER_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/check.h"

namespace opaq {
namespace internal_select {

/// Branchless bucket classifier over 2^log_range range buckets, shared by
/// the sample phase's distribution step (select/multi_select.h) and the §4
/// exact pass's bracket scan (core/exact.h).
///
/// `tree_` holds the 2^log_range - 1 sorted splitters in Eytzinger (BFS)
/// order, so the descent `b = 2b + (tree[b] < key)` needs no branches and
/// touches one cache-resident node per level. Range bucket r holds the keys
/// in (splitter[r-1], splitter[r]]. With equality buckets, range bucket r
/// is split further into id 2r (keys below splitter[r]) and id 2r+1 (keys
/// equal to it); the top range bucket (keys above every splitter) is then
/// the last id. Keys are compared with `<` only, so keys that compare
/// equal (such as -0.0 and +0.0) share a bucket.
template <typename K>
class BucketClassifier {
 public:
  /// `splitters` is sorted and distinct; `count` of them
  /// (1 <= count < 2^log_range) are used and the rest of the tree is padded
  /// with the last one.
  BucketClassifier(const K* splitters, size_t count, int log_range,
                   bool equality)
      : log_range_(log_range),
        equality_(equality),
        tree_(size_t{1} << log_range),
        sorted_(size_t{1} << log_range) {
    const size_t range_buckets = size_t{1} << log_range;
    OPAQ_DCHECK(count >= 1 && count < range_buckets);
    for (size_t i = 0; i + 1 < range_buckets; ++i) {
      sorted_[i] = splitters[std::min(i, count - 1)];
    }
    sorted_[range_buckets - 1] = sorted_[range_buckets - 2];
    // The node at level l, position p holds in-order index
    // (2p + 1) * 2^(log_range - 1 - l) - 1.
    for (int level = 0; level < log_range; ++level) {
      const size_t first = size_t{1} << level;
      for (size_t p = 0; p < first; ++p) {
        tree_[first + p] = sorted_[((2 * p + 1) << (log_range - 1 - level)) - 1];
      }
    }
  }

  size_t num_ids() const { return size_t{equality_ ? 2u : 1u} << log_range_; }

  /// Whether every key of bucket `id` equals one splitter.
  bool IsEqualityBucket(size_t id) const {
    return equality_ && (id & 1) != 0 && id + 1 != num_ids();
  }

  /// Writes each key's bucket id to `ids` and adds one to `counts[id]`.
  /// `Id` must hold every id below `num_ids()`: the sample phase passes
  /// one-byte ids, the exact pass wider ones.
  template <typename Id>
  void Classify(const K* data, size_t n, Id* ids, size_t* counts) const {
    // Local copies: stores through `ids` may alias this object's members,
    // which would otherwise force reloads at every level.
    const int log_range = log_range_;
    const bool equality = equality_;
    const K* const tree = tree_.data();
    const K* const sorted = sorted_.data();
    // Leaf `b` in [2^log_range, 2^(log_range+1)) to bucket id.
    auto finish = [&](size_t b, const K& key) {
      const size_t range = b - (size_t{1} << log_range);
      if (!equality) return range;
      return 2 * range + static_cast<size_t>(!(key < sorted[range]));
    };
    auto record = [&](size_t id, size_t i) {
      ids[i] = static_cast<Id>(id);
      ++counts[id];
    };
    const size_t body = n - n % 4;
    // Four independent descents per iteration hide the load latency of
    // each level (instruction-level parallelism).
    for (size_t i = 0; i < body; i += 4) {
      size_t b0 = 1, b1 = 1, b2 = 1, b3 = 1;
      for (int level = 0; level < log_range; ++level) {
        b0 = 2 * b0 + static_cast<size_t>(tree[b0] < data[i]);
        b1 = 2 * b1 + static_cast<size_t>(tree[b1] < data[i + 1]);
        b2 = 2 * b2 + static_cast<size_t>(tree[b2] < data[i + 2]);
        b3 = 2 * b3 + static_cast<size_t>(tree[b3] < data[i + 3]);
      }
      record(finish(b0, data[i]), i);
      record(finish(b1, data[i + 1]), i + 1);
      record(finish(b2, data[i + 2]), i + 2);
      record(finish(b3, data[i + 3]), i + 3);
    }
    for (size_t i = body; i < n; ++i) {
      size_t b = 1;
      for (int level = 0; level < log_range; ++level) {
        b = 2 * b + static_cast<size_t>(tree[b] < data[i]);
      }
      record(finish(b, data[i]), i);
    }
  }

 private:
  int log_range_;
  bool equality_;
  std::vector<K> tree_;    // [1, 2^log_range) used
  std::vector<K> sorted_;  // 2^log_range entries, the last one padded
};

}  // namespace internal_select
}  // namespace opaq

#endif  // OPAQ_SELECT_BUCKET_CLASSIFIER_H_
