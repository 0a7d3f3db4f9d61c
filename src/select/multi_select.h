#ifndef OPAQ_SELECT_MULTI_SELECT_H_
#define OPAQ_SELECT_MULTI_SELECT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "select/bucket_classifier.h"
#include "select/select.h"
#include "util/check.h"
#include "util/random.h"

namespace opaq {

/// Multi-selection: the s order statistics of one run, the paper's sample
/// phase (§2.1).
///
/// The paper finds the s samples by recursive selection: select the middle
/// rank, split the run there, recurse into both halves. That costs
/// O(m log s) comparisons in log2(s) full sweeps over the run, and it is
/// what small windows still use (`MultiSelectImpl`).
///
/// Large windows take a sample-sort distribution step instead (the
/// classification of Sanders & Winkel's Super Scalar Sample Sort, ESA 2004,
/// used for selection). Random splitters cut the window into up to 256
/// buckets. Every element is classified by a branchless descent of an
/// implicit splitter tree, its bucket byte is kept in an "oracle" array,
/// and the window is permuted in place so each bucket is contiguous. Each
/// target rank then lies in a known, cache-resident bucket; buckets holding
/// no target are never touched again. A bucket holding several targets is
/// distributed once more, in cache, into a few smaller buckets, and the
/// caller's `SelectAlgorithm` finishes each piece on only the ranks inside
/// it. Expected cost: about two passes over the run plus cache-resident
/// work, instead of log2(s) passes.
///
/// When the drawn splitters repeat a key, each distinct splitter also gets
/// an equality bucket holding exactly the keys equal to it; such a bucket
/// answers its ranks without any selection. This keeps duplicate-heavy
/// runs (Zipf heads, all-equal, few-valued) at least as fast as the
/// recursive path.
///
/// Both paths return the same values: a sample is an order statistic of
/// the run, whatever algorithm finds it.

namespace internal_select {

/// Windows of at least this many elements take the distribution step;
/// smaller ones (live-ingest segments, tail runs) keep the recursive path.
inline constexpr size_t kDistributeMinElements = size_t{1} << 16;

/// Inside a distributed window, a bucket holding two or more target ranks
/// is distributed again when it has at least this many elements.
inline constexpr size_t kRedistributeMinElements = 1024;

/// Distribution steps nest at most this deep before the recursive path
/// takes over, whatever the bucket sizes.
inline constexpr int kMaxDistributeDepth = 4;

/// Sample elements drawn per splitter; more gives evener buckets.
inline constexpr size_t kOversampling = 8;

/// Bucket ids fit in one oracle byte.
inline constexpr size_t kMaxBucketIds = 256;

/// Recursive core of multi-selection: selects the middle target rank with a
/// single-element selector (which partitions the window around it), records
/// the sample, and recurses into the two halves with the remaining ranks.
/// Depth is O(log #ranks) and each level does O(window) work: the paper's
/// O(m log s) bound for the sample phase (§2.1).
template <typename K>
void MultiSelectImpl(K* data, size_t n, const uint64_t* ranks,
                     size_t num_ranks, uint64_t base, K* out,
                     SelectAlgorithm algorithm, Xoshiro256& rng) {
  if (num_ranks == 0) return;
  const size_t mid = num_ranks / 2;
  const size_t local_rank = static_cast<size_t>(ranks[mid] - base);
  OPAQ_DCHECK(local_rank < n);
  out[mid] = SelectKth(data, n, local_rank, algorithm, rng);
  // Left half: ranks[0..mid) fall inside data[0..local_rank).
  MultiSelectImpl(data, local_rank, ranks, mid, base, out, algorithm, rng);
  // Right half: ranks(mid..) fall inside data(local_rank..n).
  MultiSelectImpl(data + local_rank + 1, n - local_rank - 1, ranks + mid + 1,
                  num_ranks - mid - 1, base + local_rank + 1, out + mid + 1,
                  algorithm, rng);
}

/// Permutes `data` in place so bucket b occupies `[begin[b], begin[b+1])`,
/// following the oracle's bucket bytes (an American-flag cycle walk: every
/// misplaced element moves once). The oracle is consumed.
template <typename K>
void PermuteByOracle(K* data, const uint8_t* oracle, const size_t* begin,
                     size_t num_ids) {
  size_t head[kMaxBucketIds];
  std::copy(begin, begin + num_ids, head);
  for (size_t b = 0; b < num_ids; ++b) {
    const size_t end = begin[b + 1];
    while (head[b] < end) {
      const size_t hole = head[b];
      size_t dest = oracle[hole];
      if (dest == b) {
        ++head[b];
        continue;
      }
      // Carry data[hole] to its bucket, pick up what was there, and repeat
      // until an element of bucket b comes back to fill the hole.
      K carried = data[hole];
      do {
        size_t slot = head[dest];
        while (oracle[slot] == dest) ++slot;  // already in place
        head[dest] = slot + 1;
        dest = oracle[slot];
        std::swap(carried, data[slot]);
      } while (dest != b);
      data[hole] = carried;
      ++head[b];
    }
  }
}

/// Distribution-step multi-selection over one window (see the file
/// comment); `oracle` has room for `n` bytes.
template <typename K>
void DistributeSelect(K* data, size_t n, const uint64_t* ranks,
                      size_t num_ranks, uint64_t base, K* out,
                      SelectAlgorithm algorithm, Xoshiro256& rng,
                      uint8_t* oracle, int depth) {
  // About four range buckets per target rank, up to one oracle byte's worth.
  int log_range = 2;
  while (log_range < 8 && (size_t{1} << log_range) < 4 * num_ranks) {
    ++log_range;
  }
  const size_t range_buckets = size_t{1} << log_range;

  // Oversampled random splitters: every kOversampling-th of a sorted sample.
  std::vector<K> sample(kOversampling * range_buckets);
  for (K& key : sample) key = data[rng.NextBounded(n)];
  std::sort(sample.begin(), sample.end());
  std::vector<K> splitters;
  splitters.reserve(range_buckets);
  for (size_t i = 1; i < range_buckets; ++i) {
    splitters.push_back(sample[i * kOversampling - 1]);
  }
  const bool repeats =
      std::adjacent_find(splitters.begin(), splitters.end(),
                         [](const K& a, const K& b) { return !(a < b); }) !=
      splitters.end();
  if (repeats) {
    // A repeated splitter marks a heavy key. Half as many range buckets
    // leave room for an equality bucket per distinct splitter.
    --log_range;
    splitters.clear();
    for (size_t i = 1; i < range_buckets / 2; ++i) {
      const K& key = sample[2 * i * kOversampling - 1];
      if (splitters.empty() || splitters.back() < key) splitters.push_back(key);
    }
  }
  const BucketClassifier<K> classifier(splitters.data(), splitters.size(),
                                       log_range, repeats);
  const size_t num_ids = classifier.num_ids();
  OPAQ_DCHECK(num_ids <= kMaxBucketIds);

  size_t counts[kMaxBucketIds] = {};
  classifier.Classify(data, n, oracle, counts);
  size_t begin[kMaxBucketIds + 1];
  begin[0] = 0;
  for (size_t b = 0; b < num_ids; ++b) begin[b + 1] = begin[b] + counts[b];
  PermuteByOracle(data, oracle, begin, num_ids);

  // Ranks are sorted, so the buckets holding them come in order too. The
  // oracle is free again and serves as scratch for nested steps.
  size_t first = 0;
  for (size_t b = 0; b < num_ids && first < num_ranks; ++b) {
    size_t last = first;
    while (last < num_ranks && ranks[last] - base < begin[b + 1]) ++last;
    if (last == first) continue;
    K* bucket = data + begin[b];
    const size_t size = begin[b + 1] - begin[b];
    if (classifier.IsEqualityBucket(b)) {
      std::fill(out + first, out + last, bucket[0]);
    } else if (last - first >= 2 && size >= kRedistributeMinElements &&
               depth + 1 < kMaxDistributeDepth) {
      DistributeSelect(bucket, size, ranks + first, last - first,
                       base + begin[b], out + first, algorithm, rng, oracle,
                       depth + 1);
    } else {
      MultiSelectImpl(bucket, size, ranks + first, last - first,
                      base + begin[b], out + first, algorithm, rng);
    }
    first = last;
  }
}

}  // namespace internal_select

/// Selects the elements at each 0-based rank in `ranks` (strictly increasing,
/// all < n) from `data[0..n)`, rearranging `data` in the process. The output
/// is sorted by construction, and afterwards `data[ranks[i]] == out[i]` with
/// no larger element before it and no smaller one after it.
///
/// `algorithm` is the single-element selector: it does all the work on
/// windows below `kDistributeMinElements`, and finishes each bucket after
/// the distribution step on larger ones. `oracle`, when given, is the
/// distribution step's one-byte-per-element scratch; pass the same vector
/// for every run to allocate it once.
template <typename K>
std::vector<K> MultiSelect(K* data, size_t n, const std::vector<uint64_t>& ranks,
                           SelectAlgorithm algorithm, Xoshiro256& rng,
                           std::vector<uint8_t>* oracle = nullptr) {
  for (size_t i = 0; i < ranks.size(); ++i) {
    OPAQ_CHECK_LT(ranks[i], n);
    if (i > 0) OPAQ_CHECK_LT(ranks[i - 1], ranks[i]);
  }
  std::vector<K> out(ranks.size());
  if (n < internal_select::kDistributeMinElements || ranks.empty()) {
    internal_select::MultiSelectImpl(data, n, ranks.data(), ranks.size(),
                                     uint64_t{0}, out.data(), algorithm, rng);
    return out;
  }
  std::vector<uint8_t> local;
  if (oracle == nullptr) oracle = &local;
  if (oracle->size() < n) oracle->resize(n);
  internal_select::DistributeSelect(data, n, ranks.data(), ranks.size(),
                                    uint64_t{0}, out.data(), algorithm, rng,
                                    oracle->data(), /*depth=*/0);
  return out;
}

/// The paper's regular sampling (§2.1 / [LLS+93]): from a run of `m`
/// elements, the samples are the elements of 1-based rank c, 2c, …, within
/// the run, where `c = m/s` is the sub-run size. Each sample "covers" the c
/// elements at or below it; those disjoint sub-runs drive the error bounds.
///
/// Works for a short tail run too: only ⌊m'/c⌋ full sub-runs produce samples
/// and the `m' mod c` leftover elements are uncovered (the caller accounts
/// for them; see core/sample_list.h).
template <typename K>
std::vector<K> RegularSamplesBySubrunSize(K* data, size_t n, uint64_t subrun_size,
                                          SelectAlgorithm algorithm,
                                          Xoshiro256& rng,
                                          std::vector<uint8_t>* oracle =
                                              nullptr) {
  OPAQ_CHECK_GT(subrun_size, 0u);
  const uint64_t num_samples = n / subrun_size;
  std::vector<uint64_t> ranks;
  ranks.reserve(num_samples);
  for (uint64_t j = 1; j <= num_samples; ++j) {
    ranks.push_back(j * subrun_size - 1);  // 0-based index of rank j*c
  }
  return MultiSelect(data, n, ranks, algorithm, rng, oracle);
}

/// Regular samples with an explicit sample count `s` (requires s | m, the
/// paper's footnote-1 assumption).
template <typename K>
std::vector<K> RegularSamples(K* data, size_t n, uint64_t s,
                              SelectAlgorithm algorithm, Xoshiro256& rng) {
  OPAQ_CHECK_GT(s, 0u);
  OPAQ_CHECK_EQ(n % s, 0u);
  return RegularSamplesBySubrunSize(data, n, n / s, algorithm, rng);
}

/// Baseline sampler for the ablation bench: sort the run (O(m log m)) and
/// read the samples off directly. Same output as RegularSamples*.
template <typename K>
std::vector<K> RegularSamplesBySorting(K* data, size_t n,
                                       uint64_t subrun_size) {
  OPAQ_CHECK_GT(subrun_size, 0u);
  std::sort(data, data + n);
  std::vector<K> out;
  out.reserve(n / subrun_size);
  for (uint64_t j = 1; j * subrun_size <= n; ++j) {
    out.push_back(data[j * subrun_size - 1]);
  }
  return out;
}

}  // namespace opaq

#endif  // OPAQ_SELECT_MULTI_SELECT_H_
