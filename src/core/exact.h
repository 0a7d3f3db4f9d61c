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
#include "parallel/worker_pool.h"
#include "select/bucket_classifier.h"
#include "select/multi_select.h"
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
/// stack, so the scan allocates nothing per block.
inline constexpr size_t kExactScanBlock = 256;

/// Elements of a run striped across the workers at once. Each worker lists
/// its stripe's kept elements (8 bytes each) until the slab is placed, so
/// the slab, not the run, bounds that scratch. It is large enough that the
/// two fork-joins per slab (microseconds each) cost little next to
/// classifying it (a millisecond of one core's time).
inline constexpr size_t kExactSlab = size_t{1} << 18;

/// The shortest stripe worth handing to a pool helper: classifying 2^14
/// elements takes tens of microseconds, several times what waking a helper
/// costs. Shorter slabs (small runs, a file's last run) take fewer workers,
/// down to the calling thread alone.
inline constexpr size_t kExactMinStripe = size_t{1} << 14;

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
/// segment. Below-counts are prefix sums of the segment counts, taken once
/// at the end. The scan therefore costs O(n log q) plus the kept elements,
/// not O(n q).
///
/// Each run is read in slabs of kExactSlab elements, and each slab is cut
/// into up to `workers` stripes (none shorter than kExactMinStripe) that
/// the shared `WorkerPool` classifies at once, each with its own segment
/// counts and a list of its kept elements. The caller then sizes every
/// kept set once for the slab and the stripes copy their elements into
/// place, stripe after stripe, so each kept set holds its elements in scan
/// order whatever `workers` is.
///
/// The per-segment cover table holds one entry per (bracket, segment) pair.
/// Each distinct endpoint inside a bracket is a key the bracket keeps when
/// the brackets come from this data, so the table then holds fewer than two
/// entries per kept element; a bracket set whose table would exceed twice
/// the budget (nested brackets from a hostile peer, say) fails with
/// ResourceExhausted before anything is read or allocated for it.
///
/// Each stripe charges the budget after each block of kExactScanBlock
/// elements that kept anything and stops at the first block that crosses
/// it, so a failing pass may hold, per worker, at most one block's elements
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
                          std::atomic<uint64_t>* shared_held = nullptr,
                          size_t workers = WorkerPool::HardwareWidth()) {
  if (estimates.empty()) return Status::OK();  // nothing to count or keep
  workers = std::max<size_t>(workers, 1);
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

  // One worker's share of a slab. Only the calling thread allocates: a
  // stripe whose list of kept elements has no room for another block
  // stops, the caller doubles the list, and the stripe resumes. The lists
  // thus stay near what one slab keeps, far below the slab's length.
  struct Stripe {
    std::vector<size_t> counts;     ///< segment counts over the whole scan
    std::vector<uint64_t> hits;     ///< (slab offset << 32) | segment id
    std::vector<uint64_t> kept;     ///< kept per bracket, then write cursor
    size_t next = 0;                ///< where the classify resumes
    BracketAccumulator<K> charged;  ///< what this stripe charged (held)
    Status status;
  };
  std::vector<Stripe> stripes;
  // Without a shared counter the stripes share this one, which starts
  // where `acc` stands, as a lone scan's own `held` would.
  std::atomic<uint64_t> local_held{acc->held};
  std::atomic<uint64_t>* const held_counter =
      shared_held != nullptr ? shared_held : &local_held;

  PooledBuffer<K> buffer(options.run_size);
  std::unique_ptr<RunSource<K>> reader = provider.OpenRuns(options);
  while (true) {
    auto more = reader->NextRun(buffer.get());
    if (!more.ok()) return more.status();
    if (!*more) break;
    for (size_t slab_start = 0; slab_start < buffer->size();
         slab_start += kExactSlab) {
      const K* slab = buffer->data() + slab_start;
      const size_t slab_len =
          std::min(kExactSlab, buffer->size() - slab_start);
      const size_t num_stripes =
          std::clamp<size_t>(slab_len / kExactMinStripe, 1, workers);
      auto stripe_end = [&](size_t w) {
        return internal_select::StripeStart(slab_len, num_stripes, w + 1);
      };
      while (stripes.size() < num_stripes) {
        stripes.emplace_back();
        stripes.back().counts.assign(num_ids, 0);
        stripes.back().hits.reserve(16 * kExactScanBlock);
        stripes.back().kept.assign(estimates.size(), 0);
      }
      for (size_t w = 0; w < num_stripes; ++w) {
        stripes[w].next = internal_select::StripeStart(slab_len, num_stripes, w);
      }
      for (bool resume = true; resume;) {
        internal_select::ForEachWorker(num_stripes, [&](size_t w) {
          Stripe& stripe = stripes[w];
          const size_t end = stripe_end(w);
          uint32_t ids[kExactScanBlock];
          uint32_t hits[kExactScanBlock];
          for (; stripe.next < end; stripe.next += kExactScanBlock) {
            if (stripe.hits.capacity() - stripe.hits.size() <
                kExactScanBlock) {
              return;
            }
            const size_t start = stripe.next;
            const size_t len = std::min(kExactScanBlock, end - start);
            classifier.Classify(slab + start, len, ids, stripe.counts.data());
            // Most elements lie in no bracket: gather the others without a
            // branch per element, then note only those.
            size_t num_hits = 0;
            for (size_t i = 0; i < len; ++i) {
              hits[num_hits] = static_cast<uint32_t>(i);
              num_hits += covered[ids[i]];
            }
            uint64_t added = 0;
            for (size_t h = 0; h < num_hits; ++h) {
              const size_t i = hits[h];
              stripe.hits.push_back(uint64_t{start + i} << 32 | ids[i]);
              const size_t begin = first[ids[i]];
              const size_t stop = first[ids[i] + 1];
              for (size_t c = begin; c < stop; ++c) ++stripe.kept[cover[c]];
              added += stop - begin;
            }
            if (added != 0) {
              stripe.status = stripe.charged.Charge(
                  added, memory_budget_elements, held_counter);
              if (!stripe.status.ok()) return;
            }
          }
        });
        // What every stripe charged counts, even when one of them failed.
        for (size_t w = 0; w < num_stripes; ++w) {
          acc->held += stripes[w].charged.held;
          stripes[w].charged.held = 0;
        }
        for (size_t w = 0; w < num_stripes; ++w) {
          OPAQ_RETURN_IF_ERROR(stripes[w].status);
        }
        resume = false;
        for (size_t w = 0; w < num_stripes; ++w) {
          if (stripes[w].next < stripe_end(w)) {
            stripes[w].hits.reserve(2 * stripes[w].hits.capacity());
            resume = true;
          }
        }
      }
      // Stripe w's elements of bracket q follow stripe w - 1's: turn each
      // stripe's counts into its write cursors, then size each set once.
      for (size_t q = 0; q < estimates.size(); ++q) {
        size_t at = acc->kept[q].size();
        for (size_t w = 0; w < num_stripes; ++w) {
          const uint64_t kept = stripes[w].kept[q];
          stripes[w].kept[q] = at;
          at += kept;
        }
        if (at != acc->kept[q].size()) acc->kept[q].resize(at);
      }
      internal_select::ForEachWorker(num_stripes, [&](size_t w) {
        Stripe& stripe = stripes[w];
        for (const uint64_t hit : stripe.hits) {
          const K key = slab[hit >> 32];
          const size_t id = static_cast<uint32_t>(hit);
          for (size_t c = first[id]; c < first[id + 1]; ++c) {
            acc->kept[cover[c]][stripe.kept[cover[c]]++] = key;
          }
        }
        stripe.hits.clear();
        std::fill(stripe.kept.begin(), stripe.kept.end(), 0);
      });
    }
  }
  std::vector<uint64_t> below(num_ids + 1, 0);
  for (size_t id = 0; id < num_ids; ++id) {
    uint64_t count = 0;
    for (const Stripe& stripe : stripes) count += stripe.counts[id];
    below[id + 1] = below[id] + count;
  }
  for (size_t q = 0; q < estimates.size(); ++q) {
    acc->below[q] += below[lower_id[q]];
  }
  return Status::OK();
}

/// Finishes the pass: selects the element of rank `target_rank - below`
/// within each kept set (Lemmas 1-2 place it there for certified brackets).
/// Every target rank is checked first; the selections then run on up to
/// `workers` threads of the shared pool, each bracket with its own
/// generator seeded by its target rank, so the answers do not depend on
/// `workers`.
template <typename K>
Result<std::vector<K>> SelectWithinBrackets(
    const std::vector<QuantileEstimate<K>>& estimates,
    BracketAccumulator<K>* acc, size_t workers = WorkerPool::HardwareWidth()) {
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
  }
  std::vector<K> out(estimates.size());
  std::atomic<size_t> next{0};
  internal_select::ForEachWorker(
      std::clamp<size_t>(workers, 1, std::max<size_t>(estimates.size(), 1)),
      [&](size_t) {
        for (size_t q; (q = next.fetch_add(1, std::memory_order_relaxed)) <
                       estimates.size();) {
          const QuantileEstimate<K>& e = estimates[q];
          Xoshiro256 rng(e.target_rank);
          out[q] = SelectKth(acc->kept[q].data(), acc->kept[q].size(),
                             e.target_rank - acc->below[q] - 1,
                             SelectAlgorithm::kIntroSelect, rng);
        }
      });
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
/// `memory_budget_elements` (0 = 4 * q * max_rank_error). The scan and the
/// selections run on every core of the shared `WorkerPool`; the answers do
/// not depend on how many. The budget is checked after each block of 256
/// scanned elements, so a failing pass may hold up to one block's elements
/// per covering bracket per worker beyond it before it returns. Keys must
/// be totally ordered by `<` (no NaN).
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
