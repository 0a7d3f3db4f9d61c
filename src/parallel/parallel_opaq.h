#ifndef OPAQ_PARALLEL_PARALLEL_OPAQ_H_
#define OPAQ_PARALLEL_PARALLEL_OPAQ_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/estimator.h"
#include "core/opaq.h"
#include "io/run_buffer_pool.h"
#include "parallel/collectives.h"
#include "parallel/global_merge.h"
#include "util/status.h"
#include "util/timer.h"

namespace opaq {

/// Phase ids used with Cluster's PhaseTimer; order matches the default
/// Options::phase_names and the paper's Table 12 rows.
///
/// Attribution under the two I/O modes: kPhaseIo is the time the processor
/// thread spends *blocked waiting for run data*. In sync mode that equals the
/// device time (the thread performs every read itself); in async mode the
/// reads happen on a prefetch thread and kPhaseIo captures only the stalls
/// that sampling could not hide — so overlapped I/O honestly disappears from
/// the processor's critical path instead of being double-counted.
enum ParallelPhase {
  kPhaseIo = 0,
  kPhaseSampling = 1,
  kPhaseLocalMerge = 2,
  kPhaseGlobalMerge = 3,
  kPhaseQuantile = 4,
  kPhaseOther = 5,
};

struct ParallelOpaqOptions {
  /// Per-processor run shape (m, s) — the paper's r = (n/p)/m runs each.
  OpaqConfig config;
  MergeMethod merge_method = MergeMethod::kSample;
  /// Quantile fractions to estimate (dectiles by default).
  std::vector<double> phis = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
};

template <typename K>
struct ParallelOpaqResult {
  std::vector<QuantileEstimate<K>> estimates;
  SampleAccounting global_accounting;
  /// Driver-side wall time of the whole parallel run.
  double total_wall_seconds = 0;
};

namespace internal_parallel {
constexpr int kAnswerTag = 301;
}  // namespace internal_parallel

/// The parallel OPAQ algorithm (paper §3), executed on a simulated
/// message-passing cluster. `local_data[rank]` is the storage backend
/// holding that processor's n/p elements — a plain file on one (possibly
/// throttled) device, or a `StripedFileProvider` over that processor's own
/// disk array. Phase timings accumulate in the cluster's per-rank
/// PhaseTimers (Table 12); quantile answers are assembled at rank 0 and
/// returned.
///
/// Algorithm per processor:
///   1. read local data as runs, regular-sample each run        (I/O + sampling)
///   2. merge the r local sample lists                          (local merge)
///   3. merge the p sample lists globally (bitonic or sample)   (global merge)
///   4. evaluate the index formulas with r*p total runs; owners
///      of the indexed samples report values to rank 0          (quantile)
template <typename K>
Result<ParallelOpaqResult<K>> RunParallelOpaq(
    Cluster& cluster, const std::vector<const RunProvider<K>*>& local_data,
    const ParallelOpaqOptions& options) {
  OPAQ_RETURN_IF_ERROR(options.config.Validate());
  if (static_cast<int>(local_data.size()) != cluster.num_processors()) {
    return Status::InvalidArgument(
        "need exactly one local data source per processor");
  }
  ParallelOpaqResult<K> result;
  WallTimer total_timer;

  Status run_status = cluster.Run([&](ProcessorContext& ctx) -> Status {
    PhaseTimer& timer = ctx.timer();
    const RunProvider<K>* provider = local_data[ctx.rank()];

    // --- Sample phase: read runs, select regular samples per run. ---
    OpaqConfig config = options.config;
    config.seed += static_cast<uint64_t>(ctx.rank());  // independent pivots
    // One sampling worker: the simulated processors already share the
    // cores, as the paper's p processors each sample their own runs.
    OpaqSketch<K> sketch(config, /*sample_workers=*/1);
    std::unique_ptr<RunSource<K>> reader = MakeRunSource<K>(*provider, config);
    PooledBuffer<K> buffer(config.run_size);
    Status local_status;
    while (true) {
      timer.Start(kPhaseIo);
      auto more = reader->NextRun(buffer.get());
      if (!more.ok()) {
        local_status = more.status();
        break;
      }
      if (!*more) break;
      timer.Start(kPhaseSampling);
      sketch.AddRun(buffer->data(), buffer->size());
    }

    // --- Local merge of the r per-run sample lists. ---
    timer.Start(kPhaseLocalMerge);
    SampleList<K> local = sketch.FinalizeSampleList();

    // Health check: collectives block on peers, so a rank whose disk failed
    // cannot just return — everyone would deadlock waiting for its
    // messages. All ranks exchange their status codes and abort together if
    // any pass failed.
    std::vector<uint64_t> health = {
        static_cast<uint64_t>(local_status.code())};
    std::vector<std::vector<uint64_t>> peer_health =
        collectives::AllGatherVectors(ctx, health);
    for (int r = 0; r < ctx.size(); ++r) {
      if (peer_health[r][0] != 0) {
        if (!local_status.ok()) return local_status;  // the actual error
        return Status(static_cast<StatusCode>(peer_health[r][0]),
                      "processor " + std::to_string(r) +
                          " failed during the sample phase");
      }
    }

    // Wait for stragglers under the "other" phase: the time a fast rank
    // spends here is load imbalance in the sample phase, not global-merge
    // cost, and booking it separately keeps Table 12's phase fractions
    // faithful to what they measure.
    timer.Start(kPhaseOther);
    ctx.Barrier();

    // --- Global merge of the p local sample lists. ---
    timer.Start(kPhaseGlobalMerge);
    const SampleAccounting& la = local.accounting();
    std::vector<uint64_t> acc_fields = {la.num_runs, la.num_samples,
                                        la.num_uncovered, la.total_elements};
    std::vector<uint64_t> global_fields =
        collectives::AllReduceSumU64(ctx, acc_fields);
    SampleAccounting global;
    global.subrun_size = options.config.subrun_size();
    global.num_runs = global_fields[0];
    global.num_samples = global_fields[1];
    global.num_uncovered = global_fields[2];
    global.total_elements = global_fields[3];
    OPAQ_CHECK(global.Valid());

    DistributedList<K> dist =
        GlobalMerge(ctx, local.samples(), options.merge_method);
    OPAQ_CHECK_EQ(dist.global_size, global.num_samples);

    // --- Quantile phase: identical index computation on every rank
    //     (formulas (2)/(5) with r*p total runs), owners answer to root. ---
    timer.Start(kPhaseQuantile);
    std::vector<QuantileEstimate<K>> estimates;
    std::vector<uint64_t> wanted;  // 1-based sample indices, per estimate x2
    for (double phi : options.phis) {
      OPAQ_CHECK(phi > 0.0 && phi <= 1.0);
      uint64_t psi = static_cast<uint64_t>(
          std::ceil(phi * static_cast<double>(global.total_elements)));
      psi = std::max<uint64_t>(1, std::min(psi, global.total_elements));
      QuantileEstimate<K> e;
      e.target_rank = psi;
      e.max_rank_error = MaxRankError(global);
      SampleIndex lower = LowerBoundIndex(global, psi);
      SampleIndex upper = UpperBoundIndex(global, psi);
      e.lower_index = lower.index;
      e.upper_index = upper.index;
      e.lower_clamped = lower.clamped;
      e.upper_clamped = upper.clamped;
      estimates.push_back(e);
      wanted.push_back(lower.index);
      wanted.push_back(upper.index);
    }
    // Report (position, value) for every wanted index this rank owns.
    std::vector<uint64_t> owned_positions;
    std::vector<K> owned_values;
    for (uint64_t idx1 : wanted) {
      const uint64_t idx0 = idx1 - 1;  // 0-based global sample index
      if (idx0 >= dist.global_offset &&
          idx0 < dist.global_offset + dist.values.size()) {
        owned_positions.push_back(idx1);
        owned_values.push_back(dist.values[idx0 - dist.global_offset]);
      }
    }
    std::vector<std::vector<uint64_t>> all_positions =
        collectives::GatherVectors(ctx, 0, owned_positions);
    std::vector<std::vector<K>> all_values =
        collectives::GatherVectors(ctx, 0, owned_values);
    if (ctx.rank() == 0) {
      for (int r = 0; r < ctx.size(); ++r) {
        OPAQ_CHECK_EQ(all_positions[r].size(), all_values[r].size());
        for (size_t i = 0; i < all_positions[r].size(); ++i) {
          for (auto& e : estimates) {
            if (e.lower_index == all_positions[r][i]) {
              e.lower = all_values[r][i];
            }
            if (e.upper_index == all_positions[r][i]) {
              e.upper = all_values[r][i];
            }
          }
        }
      }
      result.estimates = std::move(estimates);
      result.global_accounting = global;
    }
    timer.Stop();
    return Status::OK();
  });
  OPAQ_RETURN_IF_ERROR(run_status);
  result.total_wall_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace opaq

#endif  // OPAQ_PARALLEL_PARALLEL_OPAQ_H_
