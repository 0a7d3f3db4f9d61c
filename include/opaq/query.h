#ifndef OPAQ_INCLUDE_OPAQ_QUERY_H_
#define OPAQ_INCLUDE_OPAQ_QUERY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/exact.h"
#include "core/sample_list.h"
#include "core/opaq_config.h"
#include "opaq/source.h"
#include "opaq/span.h"
#include "telemetry/trace.h"
#include "util/status.h"

namespace opaq {

/// One entry of a batched query. Build with the factories; `exact = true`
/// on a quantile-flavored request asks for the paper's §4 second pass —
/// all exact requests in a batch share ONE extra pass over the data.
template <typename K>
struct QueryRequest {
  enum class Kind {
    kQuantile,        ///< bracket for the phi-quantile, phi in (0, 1]
    kQuantileByRank,  ///< bracket for the element of 1-based rank psi
    kRank,            ///< rank bracket for an arbitrary value
    kEquiQuantiles,   ///< the q-1 equi-spaced quantile brackets at once
  };

  Kind kind = Kind::kQuantile;
  double phi = 0;      ///< kQuantile
  uint64_t rank = 0;   ///< kQuantileByRank
  K value{};           ///< kRank
  int q = 0;           ///< kEquiQuantiles
  bool exact = false;  ///< recover exact value(s) with the shared 2nd pass

  static QueryRequest Quantile(double phi, bool exact = false) {
    QueryRequest r;
    r.kind = Kind::kQuantile;
    r.phi = phi;
    r.exact = exact;
    return r;
  }
  static QueryRequest QuantileByRank(uint64_t rank, bool exact = false) {
    QueryRequest r;
    r.kind = Kind::kQuantileByRank;
    r.rank = rank;
    r.exact = exact;
    return r;
  }
  static QueryRequest RankOf(K value) {
    QueryRequest r;
    r.kind = Kind::kRank;
    r.value = std::move(value);
    return r;
  }
  static QueryRequest EquiQuantiles(int q, bool exact = false) {
    QueryRequest r;
    r.kind = Kind::kEquiQuantiles;
    r.q = q;
    r.exact = exact;
    return r;
  }
};

/// The answer to one request, same order as the batch.
template <typename K>
struct QueryResult {
  typename QueryRequest<K>::Kind kind = QueryRequest<K>::Kind::kQuantile;

  /// kQuantile/kQuantileByRank: exactly one bracket. kEquiQuantiles: the
  /// q-1 brackets in ascending phi order. Empty for kRank.
  std::vector<QuantileEstimate<K>> estimates;

  /// Parallel to `estimates` when the request set `exact`; empty otherwise.
  std::vector<K> exact;

  /// kRank only.
  RankEstimate rank;
};

/// A whole batch's answers plus the session-level certificates.
template <typename K>
struct QueryResults {
  std::vector<QueryResult<K>> results;
  uint64_t total_elements = 0;
  /// Lemma 1-3 budget shared by every bracket in the batch.
  uint64_t max_rank_error = 0;
};

/// The query phase of the public API: a finished sample list bound to the
/// source(s) it came from, answering batches of quantile / rank /
/// equi-quantile requests in one call — each estimate O(1) beyond the
/// first, and at most ONE extra data pass shared by every exact-flagged
/// request in the batch (the paper's "extra time for computing additional
/// quantiles is constant per quantile", lifted to the API).
///
/// Sessions come from `Engine<K>::Build()`; they can also be constructed
/// directly from a loaded `SampleList` (e.g. a persisted sketch file), in
/// which case exact queries need `sources` to rescan.
template <typename K>
class QuerySession {
 public:
  /// A session over a finished sample list. `sources` are the shards the
  /// list summarizes (in order); they may be empty, disabling only the
  /// `exact` query flavor. `config` supplies the I/O knobs of the exact
  /// pass.
  explicit QuerySession(SampleList<K> samples,
                        std::vector<Source<K>> sources = {},
                        OpaqConfig config = OpaqConfig())
      : estimator_(std::move(samples)),
        sources_(std::move(sources)),
        config_(std::move(config)) {}

  /// Incremental refresh: folds the sample list of newly ingested data
  /// into the resident session via the associative `SampleList::Merge` —
  /// one O(s) merge instead of resketching everything already absorbed.
  /// Because regular-sampling samples are order statistics and run
  /// boundaries in a live dataset are per-segment, the absorbed session is
  /// BYTE-identical to one rebuilt from scratch over base + delta
  /// (conformance-gated in `backend_conformance_test`).
  ///
  /// `delta_sources` are the shards the delta summarizes (e.g. a
  /// `LiveTailProvider` over the new segments); they append to the
  /// session's source list so the §4 exact pass keeps covering ALL data.
  /// Omit them to keep the session estimate-only over the delta.
  ///
  /// An empty delta is a no-op; a sub-run-size mismatch returns
  /// InvalidArgument and leaves the session untouched.
  Status Absorb(const SampleList<K>& delta,
                std::vector<Source<K>> delta_sources = {}) {
    if (delta.samples().empty() && delta.total_elements() == 0) {
      return Status::OK();
    }
    auto merged = SampleList<K>::Merge(estimator_.sample_list(), delta);
    if (!merged.ok()) return merged.status();
    estimator_ = OpaqEstimator<K>(std::move(merged).value());
    for (Source<K>& source : delta_sources) {
      sources_.push_back(std::move(source));
    }
    return Status::OK();
  }

  /// Answers every request of the batch, in order. Returns
  /// InvalidArgument for a malformed request (phi outside (0,1], q < 2,
  /// rank outside [1, n]), FailedPrecondition when `exact` is requested
  /// with no attached source or a clamped bracket, and the scan's error
  /// status if the shared second pass fails.
  Result<QueryResults<K>> Query(Span<const QueryRequest<K>> requests) const {
    // Sessions can be constructed over any loaded SampleList; an empty one
    // (a sketch of a dataset smaller than one sub-run) must surface as a
    // Status here, not as the estimator's CHECK-abort.
    if (estimator_.total_elements() == 0 ||
        estimator_.sample_list().samples().empty()) {
      return Status::FailedPrecondition(
          "the session's sample list holds no samples; the quantile phase "
          "needs a non-empty sketch");
    }
    QueryResults<K> out;
    out.total_elements = estimator_.total_elements();
    out.max_rank_error = estimator_.max_rank_error();
    out.results.reserve(requests.size());

    // Estimate phase: O(1) per bracket off the sample list.
    std::vector<QuantileEstimate<K>> exact_estimates;
    std::vector<std::pair<size_t, size_t>> exact_slots;  // result, estimate
    for (size_t i = 0; i < requests.size(); ++i) {
      const QueryRequest<K>& request = requests[i];
      QueryResult<K> result;
      result.kind = request.kind;
      switch (request.kind) {
        case QueryRequest<K>::Kind::kQuantile:
          if (!(request.phi > 0.0 && request.phi <= 1.0)) {
            return Status::InvalidArgument(
                "request " + std::to_string(i) + ": phi must be in (0, 1]");
          }
          result.estimates.push_back(estimator_.Quantile(request.phi));
          break;
        case QueryRequest<K>::Kind::kQuantileByRank:
          if (request.rank < 1 || request.rank > out.total_elements) {
            return Status::InvalidArgument(
                "request " + std::to_string(i) + ": rank must be in [1, n]");
          }
          result.estimates.push_back(
              estimator_.QuantileByRank(request.rank));
          break;
        case QueryRequest<K>::Kind::kRank:
          if (request.exact) {
            return Status::InvalidArgument(
                "request " + std::to_string(i) +
                ": exact recovery applies to quantile-flavored requests, "
                "not rank brackets");
          }
          result.rank = estimator_.EstimateRank(request.value);
          break;
        case QueryRequest<K>::Kind::kEquiQuantiles:
          if (request.q < 2) {
            return Status::InvalidArgument(
                "request " + std::to_string(i) + ": q must be >= 2");
          }
          result.estimates = estimator_.EquiQuantiles(request.q);
          break;
      }
      if (request.exact) {
        for (size_t e = 0; e < result.estimates.size(); ++e) {
          exact_slots.emplace_back(i, e);
          exact_estimates.push_back(result.estimates[e]);
        }
      }
      out.results.push_back(std::move(result));
    }

    // Exact phase: one shared pass over every attached source.
    if (!exact_estimates.empty()) {
      auto values = ExactValues(exact_estimates);
      if (!values.ok()) return values.status();
      for (size_t slot = 0; slot < exact_slots.size(); ++slot) {
        QueryResult<K>& result = out.results[exact_slots[slot].first];
        result.exact.resize(result.estimates.size());
        result.exact[exact_slots[slot].second] = (*values)[slot];
      }
    }
    return out;
  }

  // ----- Conveniences (thin sugar over the batched call / estimator). -----
  //
  // These forward to the classic OpaqEstimator and share its contract: the
  // session must hold a non-empty sample list (they CHECK-abort otherwise,
  // exactly like the estimator). `Query()` is the Status-returning path —
  // use it when the sample list comes from outside (a loaded sketch file)
  // and may be empty; `sample_list().samples().empty()` tells you which
  // case you are in.

  /// Certified bracket for the phi-quantile.
  QuantileEstimate<K> Quantile(double phi) const {
    return estimator_.Quantile(phi);
  }

  /// The q-1 equi-spaced quantile brackets.
  std::vector<QuantileEstimate<K>> EquiQuantiles(int q) const {
    return estimator_.EquiQuantiles(q);
  }

  /// Rank bracket for an arbitrary value (no pass over the data).
  RankEstimate EstimateRank(const K& v) const {
    return estimator_.EstimateRank(v);
  }

  /// Memory budget (in elements) for the exact second pass; 0 (default)
  /// means 4 * q * max_rank_error — twice Lemma 3's per-bracket bound.
  /// Duplicate-heavy data can legitimately hold more than that inside a
  /// bracket; raise the budget to let the pass keep them.
  void set_exact_memory_budget(uint64_t elements) {
    exact_memory_budget_ = elements;
  }
  uint64_t exact_memory_budget() const { return exact_memory_budget_; }

  /// Exact phi-quantile via the §4 second pass over the attached sources.
  Result<K> ExactQuantile(double phi) const {
    auto results = Query({QueryRequest<K>::Quantile(phi, /*exact=*/true)});
    if (!results.ok()) return results.status();
    return results->results[0].exact[0];
  }

  uint64_t total_elements() const { return estimator_.total_elements(); }
  uint64_t max_rank_error() const { return estimator_.max_rank_error(); }
  const OpaqEstimator<K>& estimator() const { return estimator_; }
  const SampleList<K>& sample_list() const {
    return estimator_.sample_list();
  }
  const std::vector<Source<K>>& sources() const { return sources_; }
  const OpaqConfig& config() const { return config_; }

 private:
  /// The shared second pass: ONE filter scan per attached shard (each shard
  /// scanned once for ALL brackets; shard 0 on the calling thread, the
  /// others concurrently on their own threads, the same overlap as
  /// Engine::Build), then the per-shard accumulators are appended in shard
  /// order and each answer is selected from its kept set. Every shard
  /// charges one shared counter, so the memory budget bounds the total
  /// held across all shards while they run.
  ///
  /// A node-computed shard ships its whole kept set at once, so each node
  /// is granted a share of the budget not yet charged, in proportion to
  /// its elements: together the nodes never ship more than the budget. A
  /// node whose kept set outgrows its share refuses, and is asked again
  /// after every shard has finished, one node at a time, with all the
  /// budget left then, unless another shard has already failed the query.
  Result<std::vector<K>> ExactValues(
      const std::vector<QuantileEstimate<K>>& estimates) const {
    if (sources_.empty()) {
      return Status::FailedPrecondition(
          "exact queries need the session to hold its data source(s); "
          "build the session through Engine or attach sources");
    }
    OPAQ_RETURN_IF_ERROR(internal_exact::ValidateBrackets(estimates));
    TraceSpan pass_span(TraceStage::kExactPass);
    const uint64_t budget = exact_memory_budget_ != 0
                                ? exact_memory_budget_
                                : internal_exact::DefaultExactBudget(estimates);
    std::vector<internal_exact::BracketAccumulator<K>> accs(
        sources_.size(),
        internal_exact::BracketAccumulator<K>(estimates.size()));
    std::vector<Status> statuses(sources_.size());
    std::atomic<uint64_t> shared_held{0};
    uint64_t elements = 0;
    for (const Source<K>& source : sources_) elements += source.size();
    // The grant a node refused; 0 once its scan is settled.
    std::vector<uint64_t> refused(sources_.size(), 0);
    // A remote compute shard runs the filter pass NODE-SIDE (one RPC, only
    // counts + candidates come back; the grant bounds its kept sets) and
    // the result is charged and appended here like a local scan's.
    auto scan_node = [&](size_t shard, uint64_t grant) {
      grant = std::max<uint64_t>(grant, 1);
      auto scan = sources_[shard].remote_compute()->ExactPass(
          estimates, config_.read_options(), grant);
      refused[shard] =
          scan.status().code() == StatusCode::kResourceExhausted ? grant : 0;
      if (!scan.ok()) {
        statuses[shard] = scan.status();
        return;
      }
      uint64_t added = 0;
      for (const std::vector<K>& kept : scan->kept) added += kept.size();
      accs[shard].Append(std::move(scan).value());
      statuses[shard] = accs[shard].Charge(added, budget, &shared_held);
    };
    auto left = [&] { return budget - std::min(budget, shared_held.load()); };
    auto scan_shard = [&](size_t shard) {
      const Source<K>& source = sources_[shard];
      if (source.remote_compute() != nullptr) {
        scan_node(shard, static_cast<uint64_t>(
                             static_cast<long double>(left()) *
                             source.size() / std::max<uint64_t>(elements, 1)));
        return;
      }
      statuses[shard] = internal_exact::AccumulateBrackets(
          source.provider(), estimates, config_.read_options(), budget,
          &accs[shard], &shared_held);
    };
    std::vector<std::thread> threads;
    for (size_t shard = 1; shard < sources_.size(); ++shard) {
      threads.emplace_back(scan_shard, shard);
    }
    scan_shard(0);
    for (std::thread& thread : threads) thread.join();
    // A shard that failed for good fails the query, whatever the nodes
    // that refused their grants would answer when asked again.
    for (size_t shard = 0; shard < sources_.size(); ++shard) {
      if (!statuses[shard].ok() && refused[shard] == 0) return statuses[shard];
    }
    for (size_t shard = 0; shard < sources_.size(); ++shard) {
      if (refused[shard] != 0 && refused[shard] < left()) {
        scan_node(shard, left());
      }
      OPAQ_RETURN_IF_ERROR(statuses[shard]);
    }
    for (size_t shard = 1; shard < accs.size(); ++shard) {
      accs[0].Append(std::move(accs[shard]));
    }
    return internal_exact::SelectWithinBrackets(estimates, &accs[0]);
  }

  OpaqEstimator<K> estimator_;
  std::vector<Source<K>> sources_;
  OpaqConfig config_;
  uint64_t exact_memory_budget_ = 0;
};

}  // namespace opaq

#endif  // OPAQ_INCLUDE_OPAQ_QUERY_H_
