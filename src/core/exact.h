#ifndef OPAQ_CORE_EXACT_H_
#define OPAQ_CORE_EXACT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "io/run_buffer_pool.h"
#include "io/run_reader.h"
#include "select/bucket_classifier.h"
#include "select/select.h"
#include "util/random.h"
#include "util/status.h"

namespace opaq {

namespace internal_exact {

/// The result of a §4 filter scan, wherever it ran (a local shard, a data
/// node, a cluster rank): one below-count and one kept set per bracket,
/// plus the kept elements this accumulator has charged to the budget.
template <typename K>
struct BracketAccumulator {
  std::vector<uint64_t> below;
  std::vector<std::vector<K>> kept;
  uint64_t held = 0;

  explicit BracketAccumulator(size_t num_estimates = 0)
      : below(num_estimates, 0), kept(num_estimates) {}

  /// Charges `added` newly kept elements against `budget`. When several
  /// scans run concurrently (one accumulator each), pass the same
  /// `shared_held` to all of them so the budget bounds their TOTAL while
  /// they run, not just each one's share.
  Status Charge(uint64_t added, uint64_t budget,
                std::atomic<uint64_t>* shared_held) {
    held += added;
    const uint64_t held_now =
        shared_held != nullptr
            ? shared_held->fetch_add(added, std::memory_order_relaxed) + added
            : held;
    if (held_now > budget) {
      return Status::ResourceExhausted(
          "brackets hold more elements than the memory budget; "
          "increase samples_per_run or the budget");
    }
    return Status::OK();
  }

  /// Folds in the next shard's scan: below-counts add and kept sets
  /// concatenate in shard order (selection is order-insensitive, so the
  /// result equals one scan over both shards). Frees `other`'s buffers as
  /// it goes, so merging holds at most one extra kept set at a time.
  void Append(BracketAccumulator&& other) {
    for (size_t q = 0; q < below.size(); ++q) {
      below[q] += other.below[q];
      if (kept[q].empty()) {
        kept[q] = std::move(other.kept[q]);
      } else {
        kept[q].insert(kept[q].end(), other.kept[q].begin(),
                       other.kept[q].end());
        std::vector<K>().swap(other.kept[q]);
      }
    }
    held += other.held;
  }
};

/// Rejects estimates whose bracket is not a certificate.
template <typename K>
Status ValidateBrackets(const std::vector<QuantileEstimate<K>>& estimates) {
  for (const auto& e : estimates) {
    if (e.lower_clamped || e.upper_clamped) {
      return Status::FailedPrecondition(
          "an estimate's bounds were clamped; its bracket is not certified");
    }
  }
  return Status::OK();
}

/// Elements classified per block of the scan; the block's ids live on the
/// stack, so the scan allocates nothing per run.
inline constexpr size_t kExactScanBlock = 256;

/// One filter scan over `provider`: counts the elements below each bracket
/// and collects the elements inside it, accumulating into `acc` and
/// charging it through `BracketAccumulator::Charge` (with `shared_held`,
/// when concurrent scans share one budget).
///
/// Each element is classified once, not tested against every bracket. The
/// D distinct bracket endpoints b_0 < ... < b_{D-1} cut the key space into
/// 2D + 1 segments (-inf, b_0), [b_0], (b_0, b_1), ..., (b_{D-1}, +inf);
/// all keys of one segment lie below the same brackets and inside the same
/// brackets. A branchless descent of the endpoint tree (the sample phase's
/// `BucketClassifier` with equality buckets) maps an element to its
/// segment in O(log q), the segment's count goes up by one, and the
/// element is appended to the kept set of each bracket covering the
/// segment, in scan order. Below-counts are prefix sums of the segment
/// counts, taken once at the end. The scan therefore costs O(n log q) plus
/// the kept elements, not O(n q).
///
/// The per-segment cover table holds one entry per (bracket, segment) pair.
/// Each distinct endpoint inside a bracket is a key the bracket keeps when
/// the brackets come from this data, so the table then holds fewer than two
/// entries per kept element; a bracket set whose table would exceed twice
/// the budget (nested brackets from a hostile peer, say) fails with
/// ResourceExhausted before anything is read or allocated for it.
///
/// The budget is charged after each block of kExactScanBlock elements that
/// kept anything, so a failing pass may hold at most one block's elements
/// times the number of brackets covering them beyond it before returning
/// ResourceExhausted.
///
/// Keys must be totally ordered by `<` (no NaN): a NaN is classified into
/// the segment of the smallest endpoint.
template <typename K>
Status AccumulateBrackets(const RunProvider<K>& provider,
                          const std::vector<QuantileEstimate<K>>& estimates,
                          const ReadOptions& options,
                          uint64_t memory_budget_elements,
                          BracketAccumulator<K>* acc,
                          std::atomic<uint64_t>* shared_held = nullptr) {
  if (estimates.empty()) return Status::OK();  // nothing to count or keep
  std::vector<K> endpoints;
  endpoints.reserve(2 * estimates.size());
  for (const QuantileEstimate<K>& e : estimates) {
    endpoints.push_back(e.lower);
    endpoints.push_back(e.upper);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end(),
                              [](const K& a, const K& b) { return !(a < b); }),
                  endpoints.end());
  int log_range = 1;
  while ((size_t{1} << log_range) <= endpoints.size()) ++log_range;
  const internal_select::BucketClassifier<K> classifier(
      endpoints.data(), endpoints.size(), log_range, /*equality=*/true);
  const size_t num_ids = classifier.num_ids();
  // Endpoint b_j is the equality id 2j + 1; the ids below it are exactly
  // the keys below b_j.
  auto endpoint_id = [&](const K& key) {
    return 2 * static_cast<size_t>(std::lower_bound(endpoints.begin(),
                                                    endpoints.end(), key) -
                                   endpoints.begin()) +
           1;
  };

  // cover[first[id] .. first[id + 1]) lists the brackets holding the keys
  // of id, in bracket order. A bracket with upper < lower covers nothing.
  std::vector<size_t> lower_id(estimates.size());
  std::vector<size_t> upper_id(estimates.size());
  uint64_t cover_size = 0;
  for (size_t q = 0; q < estimates.size(); ++q) {
    lower_id[q] = endpoint_id(estimates[q].lower);
    upper_id[q] = endpoint_id(estimates[q].upper);
    if (upper_id[q] >= lower_id[q]) cover_size += upper_id[q] - lower_id[q] + 1;
  }
  if (cover_size / 2 > memory_budget_elements) {
    return Status::ResourceExhausted(
        "brackets overlap more than the memory budget allows; "
        "pass fewer or narrower brackets, or increase the budget");
  }
  std::vector<size_t> first(num_ids + 1, 0);
  for (size_t q = 0; q < estimates.size(); ++q) {
    for (size_t id = lower_id[q]; id <= upper_id[q]; ++id) ++first[id + 1];
  }
  for (size_t id = 0; id < num_ids; ++id) first[id + 1] += first[id];
  std::vector<uint32_t> cover(first[num_ids]);
  std::vector<size_t> fill(first.begin(), first.end() - 1);
  for (size_t q = 0; q < estimates.size(); ++q) {
    for (size_t id = lower_id[q]; id <= upper_id[q]; ++id) {
      cover[fill[id]++] = static_cast<uint32_t>(q);
    }
  }
  std::vector<uint8_t> covered(num_ids);
  for (size_t id = 0; id < num_ids; ++id) {
    covered[id] = first[id + 1] != first[id] ? 1 : 0;
  }

  std::vector<size_t> counts(num_ids, 0);
  uint32_t ids[kExactScanBlock];
  uint32_t hits[kExactScanBlock];
  PooledBuffer<K> buffer(options.run_size);
  std::unique_ptr<RunSource<K>> reader = provider.OpenRuns(options);
  while (true) {
    auto more = reader->NextRun(buffer.get());
    if (!more.ok()) return more.status();
    if (!*more) break;
    for (size_t start = 0; start < buffer->size(); start += kExactScanBlock) {
      const K* block = buffer->data() + start;
      const size_t len = std::min(kExactScanBlock, buffer->size() - start);
      classifier.Classify(block, len, ids, counts.data());
      // Most elements lie in no bracket: gather the others without a
      // branch per element, then append only those.
      size_t num_hits = 0;
      for (size_t i = 0; i < len; ++i) {
        hits[num_hits] = static_cast<uint32_t>(i);
        num_hits += covered[ids[i]];
      }
      uint64_t added = 0;
      for (size_t h = 0; h < num_hits; ++h) {
        const size_t i = hits[h];
        const size_t begin = first[ids[i]];
        const size_t end = first[ids[i] + 1];
        for (size_t c = begin; c < end; ++c) {
          acc->kept[cover[c]].push_back(block[i]);
        }
        added += end - begin;
      }
      if (added != 0) {
        OPAQ_RETURN_IF_ERROR(
            acc->Charge(added, memory_budget_elements, shared_held));
      }
    }
  }
  std::vector<uint64_t> below(num_ids + 1, 0);
  for (size_t id = 0; id < num_ids; ++id) {
    below[id + 1] = below[id] + counts[id];
  }
  for (size_t q = 0; q < estimates.size(); ++q) {
    acc->below[q] += below[lower_id[q]];
  }
  return Status::OK();
}

/// Finishes the pass: selects the element of rank `target_rank - below`
/// within each kept set (Lemmas 1-2 place it there for certified brackets).
template <typename K>
Result<std::vector<K>> SelectWithinBrackets(
    const std::vector<QuantileEstimate<K>>& estimates,
    BracketAccumulator<K>* acc) {
  std::vector<K> out;
  out.reserve(estimates.size());
  for (size_t q = 0; q < estimates.size(); ++q) {
    const QuantileEstimate<K>& e = estimates[q];
    if (e.target_rank <= acc->below[q] ||
        e.target_rank > acc->below[q] + acc->kept[q].size()) {
      // Would indicate a broken bracket; Lemmas 1-2 forbid this for
      // certified (unclamped) bounds on the data the estimate came from.
      return Status::Internal(
          "target rank falls outside its bracket; was the estimate computed "
          "from a different file?");
    }
    Xoshiro256 rng(e.target_rank);
    out.push_back(SelectKth(acc->kept[q].data(), acc->kept[q].size(),
                            e.target_rank - acc->below[q] - 1,
                            SelectAlgorithm::kIntroSelect, rng));
  }
  return out;
}

/// The default memory budget: 4 * q * max_rank_error — twice Lemma 3's
/// 2n/s-per-bracket bound, as a generous default.
template <typename K>
uint64_t DefaultExactBudget(const std::vector<QuantileEstimate<K>>& estimates) {
  if (estimates.empty()) return 0;
  return 4 * estimates.size() * estimates.front().max_rank_error;
}

}  // namespace internal_exact

/// The paper's §4 extension, batch form: recovers the *exact* values for
/// several quantiles with ONE extra pass over the data. The pass keeps only
/// the elements inside each [estimate.lower, estimate.upper] — at most 2n/s
/// per bracket by Lemma 3 — and counts the elements below each lower bound;
/// the exact quantile is then the element of rank (psi - count_below) within
/// the kept set, found by selection in memory.
///
/// The scan streams through `RunProvider::OpenRuns(options)`, so it works on
/// any storage backend and — with `options.io_mode == kAsync` — overlaps the
/// candidate-interval filtering with the next run's read(s), exactly like
/// the sample phase. Each element is classified once against the sorted
/// bracket endpoints, so the filtering costs O(n log q) comparisons plus the
/// kept elements, not O(n q).
///
/// Fails with FailedPrecondition if any bound was clamped (the bracket is
/// then not certified) and with ResourceExhausted if the kept sets exceed
/// `memory_budget_elements` (0 = 4 * q * max_rank_error). The budget is
/// checked after each block of 256 scanned elements, so a failing pass may
/// hold up to one block's elements per covering bracket beyond it before it
/// returns. Keys must be totally ordered by `<` (no NaN).
template <typename K>
Result<std::vector<K>> ExactQuantilesSecondPass(
    const RunProvider<K>& provider,
    const std::vector<QuantileEstimate<K>>& estimates,
    const ReadOptions& options, uint64_t memory_budget_elements = 0) {
  OPAQ_RETURN_IF_ERROR(internal_exact::ValidateBrackets(estimates));
  if (estimates.empty()) return std::vector<K>{};
  if (memory_budget_elements == 0) {
    memory_budget_elements = internal_exact::DefaultExactBudget(estimates);
  }
  internal_exact::BracketAccumulator<K> acc(estimates.size());
  OPAQ_RETURN_IF_ERROR(internal_exact::AccumulateBrackets(
      provider, estimates, options, memory_budget_elements, &acc));
  return internal_exact::SelectWithinBrackets(estimates, &acc);
}

/// Single-quantile form of the extra pass (budget default: the single
/// bracket's 4 * max_rank_error).
template <typename K>
Result<K> ExactQuantileSecondPass(const RunProvider<K>& provider,
                                  const QuantileEstimate<K>& estimate,
                                  const ReadOptions& options,
                                  uint64_t memory_budget_elements = 0) {
  auto values = ExactQuantilesSecondPass(
      provider, std::vector<QuantileEstimate<K>>{estimate}, options,
      memory_budget_elements);
  if (!values.ok()) return values.status();
  return (*values)[0];
}

}  // namespace opaq

#endif  // OPAQ_CORE_EXACT_H_
