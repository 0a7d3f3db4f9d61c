#ifndef OPAQ_CORE_OPAQ_H_
#define OPAQ_CORE_OPAQ_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/opaq_config.h"
#include "core/sample_list.h"
#include "io/async_run_reader.h"
#include "io/run_reader.h"
#include "io/striped_run_source.h"
#include "parallel/worker_pool.h"
#include "select/multi_select.h"
#include "telemetry/trace.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace opaq {

/// Builds the `RunSource` a config asks for over `[first, first + count)` of
/// any storage backend — the single construction point for every
/// config-driven consumer (sequential `Consume` and the parallel sample
/// phase alike). The provider picks the reader matching `config.io_mode` for
/// its own device layout (plain files: sync loop or prefetch thread; striped
/// files: inline chunk reads or one thread per stripe; in-memory vectors:
/// slicing).
template <typename K>
std::unique_ptr<RunSource<K>> MakeRunSource(const RunProvider<K>& provider,
                                            const OpaqConfig& config,
                                            uint64_t first = 0,
                                            uint64_t count = UINT64_MAX) {
  return provider.OpenRuns(config.read_options(), first, count);
}

/// The front door of the library: OPAQ's one-pass sample phase as a
/// mergeable sketch.
///
/// Feed runs (from any storage backend via `Consume`, or directly via
/// `AddRun` for streamed/incremental data), then `Finalize()` into an
/// `OpaqEstimator` that answers quantile and rank queries with certified
/// bounds. (The `include/opaq/` facade wraps this dance: `opaq::Engine`
/// drives Consume/Finalize end to end from an `opaq::Source`.)
///
///     OpaqConfig config;                     // m = 2^20, s = 1024, ...
///     OpaqSketch<uint64_t> sketch(config);
///     OPAQ_CHECK_OK(sketch.Consume(FileRunProvider<uint64_t>(&file)));
///     auto est = sketch.Finalize();
///     auto median = est.Quantile(0.5);       // [median.lower, median.upper]
///
/// Memory: one run buffer (m elements) plus the accumulated sample lists
/// (r*s elements) — the paper's §2.3 constraint r*s + m <= M — plus m bytes
/// of selection scratch and, when sampling is striped, one small gather
/// buffer per worker (see select/multi_select.h).
///
/// Sampling width: each run of at least `sample_workers` ×
/// `kDistributeMinElements` elements is sampled by that many workers of the
/// shared pool, all on the one resident run. The default is every core,
/// which is what a single sketch (one-source `Engine::Build`, `Consume`,
/// a data node's `NodeSampleRuns`) wants. Sketches that already run side by
/// side, one per shard or per simulated processor, pass 1. The width never
/// changes the samples, only how fast they are found.
template <typename K>
class OpaqSketch {
 public:
  explicit OpaqSketch(const OpaqConfig& config,
                      size_t sample_workers = WorkerPool::HardwareWidth())
      : config_(config),
        sample_workers_(sample_workers),
        rng_(config.seed),
        builder_(config.subrun_size()) {
    OPAQ_CHECK_OK(config.Validate());
  }

  const OpaqConfig& config() const { return config_; }
  uint64_t runs_consumed() const { return builder_.num_runs(); }
  uint64_t elements_consumed() const { return builder_.total_elements(); }

  /// Samples the run `run[0..n)` in place: selection rearranges its
  /// elements, and the buffer stays the caller's to refill with the next
  /// run, so a stream of runs needs one buffer.
  void AddRun(K* run, size_t n) {
    OPAQ_CHECK_LE(n, config_.run_size)
        << "a run longer than config.run_size would break the error bounds";
    if (n == 0) return;
    TraceSpan sample_span(TraceStage::kSample);
    std::vector<K> samples = RegularSamplesBySubrunSize(
        run, n, config_.subrun_size(), config_.select_algorithm, rng_,
        &scratch_, sample_workers_);
    builder_.AddRunSamples(std::move(samples), n);
  }

  /// Streams every run of any storage backend through the sketch: the whole
  /// one-pass sample phase of Figure 1. Honors `config.io_mode`: kSync
  /// alternates reads and sampling; kAsync prefetches runs on background
  /// thread(s) — one for a plain file, one per stripe for a striped file —
  /// so the disk(s) stay busy while the CPU selects samples. All backends
  /// and modes produce bit-identical estimator state over the same logical
  /// data.
  ///
  /// `io_seconds`, when non-null, accumulates the wall time this thread
  /// spent waiting on reads (for the Table 11/12 breakdowns). Under kSync
  /// that is the full device time; under kAsync it is only the stall time
  /// not hidden behind sampling — which is what makes the overlap visible.
  Status Consume(const RunProvider<K>& provider,
                 double* io_seconds = nullptr) {
    std::unique_ptr<RunSource<K>> source =
        provider.OpenRuns(config_.read_options());
    return ConsumeRuns(source.get(), io_seconds);
  }

  /// Same, over an explicit run source (sub-range of a file in the parallel
  /// algorithm, or a caller-built sync/async reader).
  ///
  /// One run buffer is sampled in place and handed back to the reader for
  /// the next run, so a prefetching reader recycles full-size buffers.
  Status ConsumeRuns(RunSource<K>* reader, double* io_seconds = nullptr) {
    std::vector<K> buffer;
    buffer.reserve(config_.run_size);
    while (true) {
      WallTimer io_timer;
      Result<bool> more = [&] {
        TraceSpan read_span(TraceStage::kRunRead);
        return reader->NextRun(&buffer);
      }();
      if (!more.ok()) return more.status();
      if (!*more) break;
      if (io_seconds != nullptr) *io_seconds += io_timer.ElapsedSeconds();
      AddRun(buffer.data(), buffer.size());
    }
    return Status::OK();
  }

  /// Merges the per-run sample lists (O(rs log r)) and returns the final
  /// sorted sample list. The sketch resets and can be reused.
  SampleList<K> FinalizeSampleList() { return builder_.Finalize(); }

  /// Convenience: finalize straight into the quantile phase.
  OpaqEstimator<K> Finalize() {
    return OpaqEstimator<K>(FinalizeSampleList());
  }

 private:
  OpaqConfig config_;
  size_t sample_workers_;
  Xoshiro256 rng_;
  SampleListBuilder<K> builder_;
  SelectScratch<K> scratch_;  ///< reused across runs
};

/// One-shot helper: estimate the q-1 equi-spaced quantiles of a disk file.
template <typename K>
Result<std::vector<QuantileEstimate<K>>> EstimateQuantilesFromFile(
    const TypedDataFile<K>* file, const OpaqConfig& config, int q) {
  OPAQ_RETURN_IF_ERROR(config.Validate());
  OpaqSketch<K> sketch(config);
  OPAQ_RETURN_IF_ERROR(sketch.Consume(FileRunProvider<K>(file)));
  return sketch.Finalize().EquiQuantiles(q);
}

/// One-shot helper over an in-memory dataset: copies it run by run into
/// one reused buffer and samples each copy in place.
template <typename K>
OpaqEstimator<K> EstimateQuantilesInMemory(const std::vector<K>& data,
                                           const OpaqConfig& config) {
  OPAQ_CHECK_OK(config.Validate());
  OpaqSketch<K> sketch(config);
  std::vector<K> buffer;
  for (uint64_t first = 0; first < data.size();
       first += config.run_size) {
    uint64_t len = std::min<uint64_t>(config.run_size, data.size() - first);
    buffer.assign(data.begin() + first, data.begin() + first + len);
    sketch.AddRun(buffer.data(), buffer.size());
  }
  return sketch.Finalize();
}

}  // namespace opaq

#endif  // OPAQ_CORE_OPAQ_H_
