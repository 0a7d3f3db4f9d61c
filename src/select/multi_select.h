#ifndef OPAQ_SELECT_MULTI_SELECT_H_
#define OPAQ_SELECT_MULTI_SELECT_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
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
/// Large windows take one sample-sort distribution step instead (the
/// classification of Sanders & Winkel's Super Scalar Sample Sort, ESA 2004,
/// used for selection). Random splitters, drawn once per run, cut it into
/// up to 256 buckets. The run is then processed in fixed slabs of `kSlab`
/// elements: each slab is classified by a branchless descent of an implicit
/// splitter tree into a slab-sized byte oracle, scattered out of place by
/// those bytes into a slab-sized buffer, and copied back, so that within
/// each slab every bucket is contiguous. Bucket b of the run is the pieces
/// "bucket b of slab j" over all slabs. Each target rank lies in a known
/// bucket; buckets holding no target are never touched again. A target
/// bucket's pieces are gathered into one cache-resident buffer, and the
/// caller's `SelectAlgorithm` finishes it on only the ranks inside it.
/// Expected cost: about three passes over the run (classify, scatter, copy
/// back) plus cache-resident work, instead of log2(s) passes.
///
/// When the drawn splitters repeat a key, each distinct splitter also gets
/// an equality bucket holding exactly the keys equal to it; such a bucket
/// answers its ranks without any selection or gather, and a slab whose
/// keys all fall in one bucket is left as it is. This keeps
/// duplicate-heavy runs (Zipf heads, all-equal, few-valued) at least as
/// fast as the recursive path.
///
/// Both halves run on T workers of the shared pool
/// (parallel/worker_pool.h), so every core works on the one resident run.
/// Workers claim slabs, then target buckets, one at a time from an atomic
/// counter: a job has many more pieces than workers, so a helper that is
/// descheduled mid-job holds up one slab or one bucket, not 1/T of the run.
/// With T = 1 the same code runs inline on the caller.
///
/// All paths return the same values for any T: a sample is an order
/// statistic of the run, whatever algorithm and however many workers find
/// it.

namespace internal_select {

/// Windows of at least this many elements take the distribution step;
/// smaller ones (live-ingest segments, tail runs) keep the recursive path.
inline constexpr size_t kDistributeMinElements = size_t{1} << 16;

/// Elements per slab of the distribution step. A worker's slab buffer and
/// oracle (kSlab * (sizeof(K) + 1) bytes) stay in its L2 cache; 2^14 and
/// 2^15 time alike, and the smaller keeps a sketch's scratch under the m
/// bytes of the whole-run oracle it replaced.
inline constexpr size_t kSlab = size_t{1} << 14;
static_assert(kDistributeMinElements % kSlab == 0);

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

}  // namespace internal_select

/// Scratch that a caller keeps across runs so multi-selection allocates it
/// once: per worker, one slab buffer (also the gather buffer of the target
/// buckets, so it grows to the largest of them when that exceeds a slab)
/// and one slab of oracle bytes; and each slab's bucket bounds. With T
/// workers that is about T * kSlab * (sizeof(K) + 1) bytes plus 1 KiB per
/// slab of the run: 640 KiB at T = 4 for a 2^20-element run of 8-byte
/// keys, against the 1 MiB of a one-byte-per-element oracle.
template <typename K>
struct SelectScratch {
  std::vector<std::vector<K>> buffers;
  std::vector<uint8_t> oracle;
  std::vector<uint32_t> bounds;
};

namespace internal_select {

/// The distribution step over `data[0..n)` (see the file comment), for
/// n >= kDistributeMinElements, on `workers` workers; `data` comes back a
/// permutation of its input.
template <typename K>
void DistributeSelect(K* data, size_t n, const uint64_t* ranks,
                      size_t num_ranks, K* out, SelectAlgorithm algorithm,
                      Xoshiro256& rng, size_t workers,
                      SelectScratch<K>& scratch) {
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

  // Sized here, on the calling thread, so workers never allocate.
  auto grow = [](auto& vector, size_t size) {
    if (vector.size() < size) vector.resize(size);
  };
  const size_t num_slabs = (n + kSlab - 1) / kSlab;
  const size_t stride = num_ids + 1;
  workers = std::min(workers, num_slabs);
  grow(scratch.buffers, workers);
  for (size_t w = 0; w < workers; ++w) grow(scratch.buffers[w], kSlab);
  grow(scratch.oracle, workers * kSlab);
  grow(scratch.bounds, num_slabs * stride);
  // Bucket b of slab j is data[j * kSlab + bounds[j * stride + b], ... + 1]).
  uint32_t* const bounds = scratch.bounds.data();

  std::atomic<size_t> next_slab{0};
  ForEachWorker(workers, [&](size_t w) {
    K* const buffer = scratch.buffers[w].data();
    uint8_t* const oracle = scratch.oracle.data() + w * kSlab;
    for (size_t j; (j = next_slab.fetch_add(1, std::memory_order_relaxed)) <
                   num_slabs;) {
      K* const slab = data + j * kSlab;
      const size_t len = std::min(kSlab, n - j * kSlab);
      size_t counts[kMaxBucketIds] = {};
      classifier.Classify(slab, len, oracle, counts);
      uint32_t* const begin = bounds + j * stride;
      size_t pos[kMaxBucketIds];
      begin[0] = 0;
      for (size_t b = 0; b < num_ids; ++b) {
        pos[b] = begin[b];
        begin[b + 1] = static_cast<uint32_t>(begin[b] + counts[b]);
      }
      if (counts[oracle[0]] == len) continue;  // one bucket: already grouped
      for (size_t i = 0; i < len; ++i) buffer[pos[oracle[i]]++] = slab[i];
      std::copy(buffer, buffer + len, slab);
    }
  });
  auto piece_size = [&](size_t j, size_t b) {
    return size_t{bounds[j * stride + b + 1]} - bounds[j * stride + b];
  };

  // Bucket b of the run holds ranks [begin[b], begin[b + 1]).
  uint64_t begin[kMaxBucketIds + 1];
  begin[0] = 0;
  for (size_t b = 0; b < num_ids; ++b) {
    begin[b + 1] = begin[b];
    for (size_t j = 0; j < num_slabs; ++j) begin[b + 1] += piece_size(j, b);
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
    while (last < num_ranks && ranks[last] < begin[b + 1]) ++last;
    if (last == first) continue;
    targets[num_targets++] = {b, first, last};
    if (!classifier.IsEqualityBucket(b)) {
      largest = std::max<size_t>(largest, begin[b + 1] - begin[b]);
    }
    first = last;
  }
  workers = std::min(workers, num_targets);
  for (size_t w = 0; w < workers; ++w) grow(scratch.buffers[w], largest);
  std::vector<Xoshiro256> worker_rngs;
  for (size_t w = 1; w < workers; ++w) worker_rngs.emplace_back(rng.Next());

  // Workers claim target buckets one at a time, gather each one's pieces
  // into their buffer and select its ranks there. An equality bucket's
  // ranks all hold its splitter.
  std::atomic<size_t> next_target{0};
  ForEachWorker(workers, [&](size_t w) {
    Xoshiro256& local_rng = w == 0 ? rng : worker_rngs[w - 1];
    K* const buffer = scratch.buffers[w].data();
    for (size_t t; (t = next_target.fetch_add(1, std::memory_order_relaxed)) <
                   num_targets;) {
      const size_t b = targets[t].bucket;
      const size_t first = targets[t].first;
      const size_t last = targets[t].last;
      if (classifier.IsEqualityBucket(b)) {
        OPAQ_DCHECK(b / 2 < splitters.size());
        std::fill(out + first, out + last, splitters[b / 2]);
        continue;
      }
      K* at = buffer;
      for (size_t j = 0; j < num_slabs; ++j) {
        const K* const piece = data + j * kSlab + bounds[j * stride + b];
        at = std::copy(piece, piece + piece_size(j, b), at);
      }
      MultiSelectImpl(buffer, static_cast<size_t>(at - buffer), ranks + first,
                      last - first, begin[b], out + first, algorithm,
                      local_rng);
    }
  });
}

}  // namespace internal_select

/// Selects the elements at each 0-based rank in `ranks` (strictly increasing,
/// all < n) from `data[0..n)`, rearranging `data` in the process: it comes
/// back a permutation of its input. The output is sorted by construction.
/// Below `kDistributeMinElements` elements, afterwards also
/// `data[ranks[i]] == out[i]` with no larger element before it and no
/// smaller one after it.
///
/// `algorithm` is the single-element selector: it does all the work on
/// windows below `kDistributeMinElements`, and finishes each target bucket
/// of the distribution step on larger ones. `scratch`, when given, is
/// reused (pass the same one for every run). `workers` runs the
/// distribution step on that many workers of the shared pool; windows
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
  internal_select::DistributeSelect(data, n, ranks.data(), ranks.size(),
                                    out.data(), algorithm, rng, workers,
                                    scratch != nullptr ? *scratch : local);
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
