#ifndef OPAQ_PARALLEL_PARALLEL_EXACT_H_
#define OPAQ_PARALLEL_PARALLEL_EXACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/exact.h"
#include "io/run_reader.h"
#include "parallel/collectives.h"
#include "util/status.h"

namespace opaq {

/// The paper's §4 exact pass on a §3 cluster: after a parallel OPAQ run
/// produced certified brackets, one extra parallel pass recovers the exact
/// values, using the same pieces as the local pass (core/exact.h).
///
/// Each rank runs `internal_exact::AccumulateBrackets` over its own shard:
/// one O(n log q) filter scan that counts the elements below each bracket
/// and keeps the ones inside it, under `local_memory_budget` kept elements
/// (0 = `DefaultExactBudget`; a bracket set whose cover table alone would
/// exceed it fails before the shard is read). The ranks then exchange
/// health, so all of them fail together if any scan failed. Below-counts
/// are all-reduced and the kept sets gathered at rank 0 in rank order,
/// where `SelectWithinBrackets` picks each answer. Communication is
/// O(q * n/s), tiny next to the data.
///
/// Each shard may live on any storage backend; with
/// `options.io_mode == kAsync` the filtering overlaps the next run's reads.
///
/// Returns the exact values at rank 0 (empty vector on other ranks). Must be
/// called from within a Cluster::Run body with the same SPMD discipline as
/// the other collectives; `estimates` must be identical on every rank.
template <typename K>
Result<std::vector<K>> ParallelExactQuantiles(
    ProcessorContext& ctx, const RunProvider<K>& local_data,
    const std::vector<QuantileEstimate<K>>& estimates,
    const ReadOptions& options, uint64_t local_memory_budget = 0) {
  OPAQ_RETURN_IF_ERROR(internal_exact::ValidateBrackets(estimates));
  if (local_memory_budget == 0) {
    local_memory_budget = internal_exact::DefaultExactBudget(estimates);
  }
  // One worker per rank, as in RunParallelOpaq: each rank models one of
  // the paper's p processors.
  internal_exact::BracketAccumulator<K> local(estimates.size());
  const Status local_status = internal_exact::AccumulateBrackets(
      local_data, estimates, options, local_memory_budget, &local,
      /*shared_held=*/nullptr, /*workers=*/1);

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

  // Combine: total below-counts everywhere, kept sets at rank 0.
  internal_exact::BracketAccumulator<K> all(estimates.size());
  all.below = collectives::AllReduceSumU64(ctx, local.below);
  for (size_t q = 0; q < estimates.size(); ++q) {
    for (const std::vector<K>& kept :
         collectives::GatherVectors(ctx, 0, local.kept[q])) {
      all.kept[q].insert(all.kept[q].end(), kept.begin(), kept.end());
    }
  }
  if (ctx.rank() != 0) return std::vector<K>{};
  return internal_exact::SelectWithinBrackets(estimates, &all, /*workers=*/1);
}

}  // namespace opaq

#endif  // OPAQ_PARALLEL_PARALLEL_EXACT_H_
