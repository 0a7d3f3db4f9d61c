#ifndef OPAQ_SELECT_MULTI_SELECT_H_
#define OPAQ_SELECT_MULTI_SELECT_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/worker_pool.h"
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
/// The top-level distribution step can be striped across T workers of the
/// shared pool (parallel/worker_pool.h), so every core works on the one
/// resident run. Worker w classifies and permutes its own contiguous
/// stripe of n/T elements in place. Bucket b of the window is then the T
/// pieces "bucket b of stripe w"; workers claim the buckets holding target
/// ranks one at a time, gather each one's pieces into a reused per-worker
/// buffer, and finish it as above. Equality buckets are answered without a
/// gather. With T = 1 the single stripe is the whole window and every
/// bucket already lies whole in place, so this is the sequential step, not
/// a second implementation. The partition postcondition of `MultiSelect`
/// (each sample at its own rank in the rearranged run) holds for one
/// worker only; with several, the run comes back grouped by bucket within
/// each stripe.
///
/// All paths return the same values for any T: a sample is an order
/// statistic of the run, whatever algorithm and however many workers find
/// it.

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

/// Start of stripe `w` when `n` elements are cut into `workers` stripes
/// whose sizes differ by at most one.
inline size_t StripeStart(size_t n, size_t workers, size_t w) {
  return n / workers * w + std::min(w, n % workers);
}

/// Runs `body(w)` for each worker w in [0, workers): inline for one worker,
/// so one-worker sampling never creates the shared pool, otherwise on it.
template <typename Body>
void ForEachWorker(size_t workers, Body&& body) {
  if (workers == 1) {
    body(0);
  } else {
    WorkerPool::Shared().ParallelFor(workers, body);
  }
}

/// Distribution-step multi-selection over one window (see the file
/// comment); `oracle` has room for `n` bytes. With `workers` > 1 the window
/// is striped: `gather` points to `workers` reusable buffers, and `data`
/// comes back a permutation of its input but not partitioned around the
/// selected ranks.
template <typename K>
void DistributeSelect(K* data, size_t n, const uint64_t* ranks,
                      size_t num_ranks, uint64_t base, K* out,
                      SelectAlgorithm algorithm, Xoshiro256& rng,
                      uint8_t* oracle, int depth, size_t workers = 1,
                      std::vector<K>* gather = nullptr) {
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

  // Stripe w is classified and permuted in place on its own, so its bucket
  // b is contiguous: data[stripe_begin[w][b], stripe_begin[w][b + 1]). One
  // stripe is the whole window.
  constexpr size_t kStride = kMaxBucketIds + 1;
  size_t one_stripe[kStride];
  std::vector<size_t> many_stripes(workers > 1 ? workers * kStride : 0);
  size_t* const stripe_begin = workers > 1 ? many_stripes.data() : one_stripe;
  ForEachWorker(workers, [&](size_t w) {
    const size_t lo = StripeStart(n, workers, w);
    const size_t len = StripeStart(n, workers, w + 1) - lo;
    size_t counts[kMaxBucketIds] = {};
    classifier.Classify(data + lo, len, oracle + lo, counts);
    size_t* begin = &stripe_begin[w * kStride];
    begin[0] = 0;
    for (size_t b = 0; b < num_ids; ++b) begin[b + 1] = begin[b] + counts[b];
    PermuteByOracle(data + lo, oracle + lo, begin, num_ids);
    for (size_t b = 0; b <= num_ids; ++b) begin[b] += lo;
  });
  // Bucket b of stripe w: its first element and its length.
  auto piece = [&](size_t w, size_t b) {
    const size_t* begin = &stripe_begin[w * kStride];
    return std::make_pair(data + begin[b], begin[b + 1] - begin[b]);
  };

  // Bucket b of the window holds every stripe's bucket b, from begin[b].
  size_t begin[kMaxBucketIds + 1];
  begin[0] = 0;
  for (size_t b = 0; b < num_ids; ++b) {
    begin[b + 1] = begin[b];
    for (size_t w = 0; w < workers; ++w) begin[b + 1] += piece(w, b).second;
  }

  // Ranks are sorted, so the buckets holding them come in order too.
  struct Target {
    size_t bucket, first, last;  // ranks [first, last) lie in the bucket
  };
  Target targets[kMaxBucketIds];
  size_t num_targets = 0;
  size_t largest = 0;  // the biggest bucket that must be gathered
  for (size_t b = 0, first = 0; b < num_ids && first < num_ranks; ++b) {
    size_t last = first;
    while (last < num_ranks && ranks[last] - base < begin[b + 1]) ++last;
    if (last == first) continue;
    targets[num_targets++] = {b, first, last};
    if (!classifier.IsEqualityBucket(b)) {
      largest = std::max(largest, begin[b + 1] - begin[b]);
    }
    first = last;
  }
  // Sized here, on the calling thread, so workers never allocate them.
  if (workers > 1) {
    for (size_t w = 0; w < workers; ++w) {
      if (gather[w].size() < largest) gather[w].resize(largest);
    }
  }
  std::vector<Xoshiro256> worker_rngs;
  for (size_t w = 1; w < workers; ++w) worker_rngs.emplace_back(rng.Next());

  // Workers claim target buckets one at a time. A bucket's pieces are
  // gathered into the worker's buffer (with one stripe the bucket already
  // lies whole in `data`). The oracle is free again and serves as scratch
  // for nested steps: one worker reuses its head, which stays in cache;
  // several use the disjoint bytes under each bucket's place in the window.
  std::atomic<size_t> next_target{0};
  ForEachWorker(workers, [&](size_t w) {
    Xoshiro256& local_rng = w == 0 ? rng : worker_rngs[w - 1];
    for (size_t t; (t = next_target.fetch_add(1, std::memory_order_relaxed)) <
                   num_targets;) {
      const size_t b = targets[t].bucket;
      const size_t first = targets[t].first;
      const size_t last = targets[t].last;
      const size_t size = begin[b + 1] - begin[b];
      if (classifier.IsEqualityBucket(b)) {
        size_t stripe = 0;
        while (piece(stripe, b).second == 0) ++stripe;
        std::fill(out + first, out + last, *piece(stripe, b).first);
        continue;
      }
      K* bucket = data + begin[b];
      if (workers > 1) {
        bucket = gather[w].data();
        K* at = bucket;
        for (size_t stripe = 0; stripe < workers; ++stripe) {
          const auto [from, len] = piece(stripe, b);
          at = std::copy(from, from + len, at);
        }
      }
      if (last - first >= 2 && size >= kRedistributeMinElements &&
          depth + 1 < kMaxDistributeDepth) {
        DistributeSelect(bucket, size, ranks + first, last - first,
                         base + begin[b], out + first, algorithm, local_rng,
                         workers == 1 ? oracle : oracle + begin[b],
                         depth + 1);
      } else {
        MultiSelectImpl(bucket, size, ranks + first, last - first,
                        base + begin[b], out + first, algorithm, local_rng);
      }
    }
  });
}

}  // namespace internal_select

/// Scratch that a caller keeps across runs so multi-selection allocates it
/// once: the distribution step's one-byte-per-element oracle and, for a
/// striped step, one gather buffer per worker (each about the largest
/// bucket holding a target rank, a few hundredths of the run).
template <typename K>
struct SelectScratch {
  std::vector<uint8_t> oracle;
  std::vector<std::vector<K>> gather;
};

/// Selects the elements at each 0-based rank in `ranks` (strictly increasing,
/// all < n) from `data[0..n)`, rearranging `data` in the process. The output
/// is sorted by construction. With one worker, afterwards
/// `data[ranks[i]] == out[i]` with no larger element before it and no
/// smaller one after it; with several, `data` is only a permutation of its
/// input.
///
/// `algorithm` is the single-element selector: it does all the work on
/// windows below `kDistributeMinElements`, and finishes each bucket after
/// the distribution step on larger ones. `scratch`, when given, is reused
/// (pass the same one for every run). `workers` stripes the top-level
/// distribution step across that many workers of the shared pool; windows
/// below `workers * kDistributeMinElements` take one. The output does not
/// depend on `workers`.
template <typename K>
std::vector<K> MultiSelect(K* data, size_t n, const std::vector<uint64_t>& ranks,
                           SelectAlgorithm algorithm, Xoshiro256& rng,
                           SelectScratch<K>* scratch = nullptr,
                           size_t workers = 1) {
  for (size_t i = 0; i < ranks.size(); ++i) {
    OPAQ_CHECK_LT(ranks[i], n);
    if (i > 0) OPAQ_CHECK_LT(ranks[i - 1], ranks[i]);
  }
  OPAQ_CHECK_GT(workers, 0u);
  std::vector<K> out(ranks.size());
  if (n < internal_select::kDistributeMinElements || ranks.empty()) {
    internal_select::MultiSelectImpl(data, n, ranks.data(), ranks.size(),
                                     uint64_t{0}, out.data(), algorithm, rng);
    return out;
  }
  if (n / workers < internal_select::kDistributeMinElements) workers = 1;
  SelectScratch<K> local;
  if (scratch == nullptr) scratch = &local;
  if (scratch->oracle.size() < n) scratch->oracle.resize(n);
  if (scratch->gather.size() < workers) scratch->gather.resize(workers);
  internal_select::DistributeSelect(data, n, ranks.data(), ranks.size(),
                                    uint64_t{0}, out.data(), algorithm, rng,
                                    scratch->oracle.data(), /*depth=*/0,
                                    workers, scratch->gather.data());
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
                                          SelectScratch<K>* scratch = nullptr,
                                          size_t workers = 1) {
  OPAQ_CHECK_GT(subrun_size, 0u);
  const uint64_t num_samples = n / subrun_size;
  std::vector<uint64_t> ranks;
  ranks.reserve(num_samples);
  for (uint64_t j = 1; j <= num_samples; ++j) {
    ranks.push_back(j * subrun_size - 1);  // 0-based index of rank j*c
  }
  return MultiSelect(data, n, ranks, algorithm, rng, scratch, workers);
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
