#ifndef OPAQ_INCLUDE_OPAQ_ENGINE_H_
#define OPAQ_INCLUDE_OPAQ_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/opaq.h"
#include "core/sample_list.h"
#include "opaq/query.h"
#include "opaq/source.h"
#include "parallel/worker_pool.h"
#include "telemetry/metrics.h"
#include "util/status.h"
#include "util/timer.h"

namespace opaq {

/// What one `Engine::Build()` measured.
struct EngineStats {
  /// Wall time of the whole sample phase (all shards, incl. merges).
  double seconds = 0;
  /// Wall time the consumer thread(s) spent blocked on reads, summed over
  /// shards. Under kSync this is full device time; under kAsync only the
  /// stalls sampling could not hide.
  double io_stall_seconds = 0;
  uint64_t runs = 0;
  uint64_t elements = 0;
  size_t shards = 0;
  /// Workers each shard's sketch stripes a run across: every core
  /// (`WorkerPool::HardwareWidth()`), however many shards there are.
  size_t sample_workers = 0;
  /// Pack/unpack accounting over the build, summed across compressed-extent
  /// shards (all-zero when no shard is compressed): how many extents were
  /// decoded, and how `packed_bytes` read from disk expanded to
  /// `unpacked_bytes` fed to sampling. This is the "bytes-from-disk cut"
  /// the codecs exist for.
  ExtentStatsSnapshot extents;
};

/// The front door of the public API: owns an `OpaqConfig` and the
/// `Source`(s) to summarize, and drives the whole paper pipeline — the
/// one-pass sample phase, the per-run/per-shard sample-list merges, and
/// finalization — behind a single `Build()` call that returns a ready
/// `QuerySession` or a `Status` (no aborts on bad configs or dead disks).
///
/// The sampling width is derived, not configured: every shard reads its
/// runs in order and every core samples each resident run (the striped
/// distribution step of select/multi_select.h). Several sources get one
/// thread per shard, and their sketches share the one `WorkerPool`, whose
/// callers run their own slices, so shards never wait on each other for a
/// core and each still holds only its one run. Run buffers come from the
/// process-wide `RunBufferPool`, so shard threads add no resident copies.
///
///     OpaqConfig config;
///     auto session = Engine<uint64_t>(config, Source<uint64_t>::Open(path)
///                                                 .value())
///                        .Build();
///     if (!session.ok()) { ... }
///     auto median = session->Quantile(0.5);   // certified bracket
///     auto exact = session->ExactQuantile(0.5);  // optional 2nd pass
///
/// Multi-shard builds produce exactly the sample list the paper's §3
/// parallel algorithm would: per-shard lists merge associatively, so the
/// result equals a sequential pass whenever shard sizes align with run
/// boundaries (and is certified over the union regardless).
template <typename K>
class Engine {
 public:
  Engine(OpaqConfig config, Source<K> source)
      : config_(std::move(config)) {
    shards_.push_back(std::move(source));
  }

  Engine(OpaqConfig config, std::vector<Source<K>> shards)
      : config_(std::move(config)), shards_(std::move(shards)) {}

  const OpaqConfig& config() const { return config_; }
  const std::vector<Source<K>>& sources() const { return shards_; }

  /// Stats of the most recent `Build()`.
  const EngineStats& stats() const { return stats_; }

  /// Runs the sample phase end to end and returns the query session, which
  /// keeps the sources attached so exact (second-pass) queries work.
  /// Returns InvalidArgument for a bad config, FailedPrecondition when the
  /// sources hold no data (or too little for one sample), and the I/O
  /// error of any failing shard scan.
  Result<QuerySession<K>> Build() {
    OPAQ_RETURN_IF_ERROR(config_.Validate());
    if (shards_.empty()) {
      return Status::InvalidArgument("Engine has no sources");
    }
    stats_ = EngineStats{};
    stats_.shards = shards_.size();
    stats_.sample_workers = WorkerPool::HardwareWidth();
    WallTimer total_timer;

    // Compressed-extent backends keep cumulative pack/unpack counters;
    // snapshot them now so the post-build delta attributes exactly this
    // build's decodes to stats_.extents.
    std::vector<ExtentStatsSnapshot> extents_before(shards_.size());
    for (size_t rank = 0; rank < shards_.size(); ++rank) {
      if (const ExtentStats* pack = shards_[rank].pack_stats()) {
        extents_before[rank] = pack->Snapshot();
      }
    }

    std::vector<SampleList<K>> lists(shards_.size());
    std::vector<Status> statuses(shards_.size());
    std::vector<double> io_seconds(shards_.size(), 0);
    std::vector<uint64_t> runs(shards_.size(), 0);
    auto build_shard = [&](size_t rank) {
      // Independent pivot seeds per shard, matching RunParallelOpaq; the
      // samples themselves are order statistics, so seeds never change the
      // result — only selection speed.
      OpaqConfig shard_config = config_;
      shard_config.seed += static_cast<uint64_t>(rank);
      // A remote compute shard samples NODE-SIDE: one RPC ships the config, the
      // node runs the identical sketch over its own disks, and only the
      // O(s) sample list comes back. The RPC wall time is this shard's I/O
      // stall (the thread blocks on it exactly as it would on reads).
      if (const RemoteComputeClient<K>* compute =
              shards_[rank].remote_compute()) {
        WallTimer rpc_timer;
        auto list = compute->SampleRuns(shard_config);
        if (!list.ok()) {
          statuses[rank] = list.status();
          return;
        }
        io_seconds[rank] += rpc_timer.ElapsedSeconds();
        runs[rank] = list->accounting().num_runs;
        lists[rank] = std::move(list).value();
        return;
      }
      OpaqSketch<K> sketch(shard_config, stats_.sample_workers);
      statuses[rank] =
          sketch.Consume(shards_[rank].provider(), &io_seconds[rank]);
      if (!statuses[rank].ok()) return;  // skip the finalize sort/merge
      runs[rank] = sketch.runs_consumed();
      lists[rank] = sketch.FinalizeSampleList();
    };

    // Shard 0 on the calling thread and the others on their own threads,
    // the same layout as the session's exact pass.
    std::vector<std::thread> threads;
    for (size_t rank = 1; rank < shards_.size(); ++rank) {
      threads.emplace_back(build_shard, rank);
    }
    build_shard(0);
    for (std::thread& thread : threads) thread.join();
    for (size_t rank = 0; rank < shards_.size(); ++rank) {
      if (!statuses[rank].ok()) {
        return Status(statuses[rank].code(),
                      "shard " + std::to_string(rank) + ": " +
                          statuses[rank].message());
      }
      stats_.io_stall_seconds += io_seconds[rank];
      stats_.runs += runs[rank];
      if (const ExtentStats* pack = shards_[rank].pack_stats()) {
        ExtentStatsSnapshot delta = pack->Snapshot();
        delta.Subtract(extents_before[rank]);
        stats_.extents.Add(delta);
      }
    }

    // Global merge, in shard order (associative: equals the paper's §4
    // incremental composition of the shards).
    SampleList<K> merged = std::move(lists[0]);
    for (size_t rank = 1; rank < shards_.size(); ++rank) {
      auto combined = SampleList<K>::Merge(merged, lists[rank]);
      OPAQ_RETURN_IF_ERROR(combined.status());
      merged = std::move(combined).value();
    }
    stats_.elements = merged.total_elements();
    stats_.seconds = total_timer.ElapsedSeconds();
    PublishBuildMetrics();
    if (merged.accounting().num_samples == 0) {
      return Status::FailedPrecondition(
          "the sources hold too little data for even one sample (n < m/s); "
          "the quantile phase needs a non-empty sample list");
    }
    return QuerySession<K>(std::move(merged), shards_, config_);
  }

 private:
  /// Folds this build's stats into the process-global metrics registry so a
  /// daemon's `kStats` snapshot carries build history without any plumbing.
  /// Durations go in as integer microseconds (counters are u64).
  void PublishBuildMetrics() const {
    MetricsRegistry& registry = MetricsRegistry::Global();
    if (!registry.enabled()) return;
    registry.GetCounter("engine.builds")->Add(1);
    registry.GetCounter("engine.runs")->Add(stats_.runs);
    registry.GetCounter("engine.elements")->Add(stats_.elements);
    registry.GetCounter("engine.build_us")
        ->Add(static_cast<uint64_t>(stats_.seconds * 1e6));
    registry.GetCounter("engine.io_stall_us")
        ->Add(static_cast<uint64_t>(stats_.io_stall_seconds * 1e6));
    registry.GetCounter("engine.extents_decoded")->Add(stats_.extents.extents);
    registry.GetCounter("engine.extent_packed_bytes")
        ->Add(stats_.extents.packed_bytes);
    registry.GetCounter("engine.extent_unpacked_bytes")
        ->Add(stats_.extents.unpacked_bytes);
    registry.GetGauge("engine.sample_workers")
        ->Set(static_cast<int64_t>(stats_.sample_workers));
  }

  OpaqConfig config_;
  std::vector<Source<K>> shards_;
  EngineStats stats_;
};

}  // namespace opaq

#endif  // OPAQ_INCLUDE_OPAQ_ENGINE_H_
