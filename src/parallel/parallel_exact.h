#ifndef OPAQ_PARALLEL_PARALLEL_EXACT_H_
#define OPAQ_PARALLEL_PARALLEL_EXACT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/estimator.h"
#include "io/run_reader.h"
#include "parallel/collectives.h"
#include "select/select.h"
#include "util/random.h"
#include "util/status.h"

namespace opaq {

/// Distributed version of the paper's §4 exact-quantile extension: after a
/// parallel OPAQ run produced certified brackets, one extra parallel pass
/// recovers the exact values.
///
/// Each processor scans its local shard once, counting elements below each
/// bracket and keeping the (at most ~2n/s per quantile, globally) elements
/// inside it. Below-counts are all-reduced; the kept elements are gathered
/// at rank 0, which selects the element of rank `psi - below_total` within
/// each bracket. Communication is O(q * n/s) — tiny next to the data.
///
/// The local scan streams through `RunProvider::OpenRuns(options)`, so each
/// processor's shard may live on any storage backend, and with
/// `options.io_mode == kAsync` the bracket filtering overlaps with the next
/// run's read(s).
///
/// Returns the exact values at rank 0 (empty vector on other ranks). Must be
/// called from within a Cluster::Run body with the same SPMD discipline as
/// the other collectives; `estimates` must be identical on every rank.
template <typename K>
Result<std::vector<K>> ParallelExactQuantiles(
    ProcessorContext& ctx, const RunProvider<K>& local_data,
    const std::vector<QuantileEstimate<K>>& estimates,
    const ReadOptions& options, uint64_t local_memory_budget = 0) {
  for (const auto& e : estimates) {
    if (e.lower_clamped || e.upper_clamped) {
      return Status::FailedPrecondition(
          "an estimate's bounds were clamped; its bracket is not certified");
    }
  }
  if (local_memory_budget == 0 && !estimates.empty()) {
    local_memory_budget =
        4 * estimates.size() * estimates.front().max_rank_error;
  }

  // Local pass: below-counts and kept elements per bracket.
  std::vector<uint64_t> below(estimates.size(), 0);
  std::vector<std::vector<K>> kept(estimates.size());
  uint64_t held = 0;
  Status local_status;
  {
    std::vector<K> buffer;
    std::unique_ptr<RunSource<K>> reader = local_data.OpenRuns(options);
    while (local_status.ok()) {
      auto more = reader->NextRun(&buffer);
      if (!more.ok()) {
        local_status = more.status();
        break;
      }
      if (!*more) break;
      for (const K& v : buffer) {
        for (size_t q = 0; q < estimates.size(); ++q) {
          if (v < estimates[q].lower) {
            ++below[q];
          } else if (!(estimates[q].upper < v)) {
            kept[q].push_back(v);
            if (++held > local_memory_budget) {
              local_status = Status::ResourceExhausted(
                  "brackets exceed the local memory budget");
            }
          }
        }
      }
    }
  }

  // Health check before any blocking exchange (same pattern as
  // RunParallelOpaq): all ranks abort together if any local pass failed.
  std::vector<uint64_t> health = {
      static_cast<uint64_t>(local_status.code())};
  auto peer_health = collectives::AllGatherVectors(ctx, health);
  for (int r = 0; r < ctx.size(); ++r) {
    if (peer_health[r][0] != 0) {
      if (!local_status.ok()) return local_status;
      return Status(static_cast<StatusCode>(peer_health[r][0]),
                    "processor " + std::to_string(r) +
                        " failed during the exact pass");
    }
  }

  // Combine: total below-counts everywhere, kept elements at root.
  std::vector<uint64_t> below_total =
      collectives::AllReduceSumU64(ctx, below);
  std::vector<K> out;
  for (size_t q = 0; q < estimates.size(); ++q) {
    std::vector<std::vector<K>> shards =
        collectives::GatherVectors(ctx, 0, kept[q]);
    if (ctx.rank() != 0) continue;
    std::vector<K> all;
    for (auto& shard : shards) {
      all.insert(all.end(), shard.begin(), shard.end());
    }
    const QuantileEstimate<K>& e = estimates[q];
    if (e.target_rank <= below_total[q] ||
        e.target_rank > below_total[q] + all.size()) {
      return Status::Internal(
          "target rank falls outside its bracket; estimates must come from "
          "these exact shards");
    }
    Xoshiro256 rng(e.target_rank);
    out.push_back(SelectKth(all.data(), all.size(),
                            e.target_rank - below_total[q] - 1,
                            SelectAlgorithm::kIntroSelect, rng));
  }
  return out;
}

}  // namespace opaq

#endif  // OPAQ_PARALLEL_PARALLEL_EXACT_H_
