#ifndef OPAQ_PERFBENCH_HARNESS_H_
#define OPAQ_PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/sample_list.h"
#include "telemetry/trace.h"
#include "util/status.h"

namespace opaq {
namespace perfbench {

using Key = uint64_t;

/// What one invocation measures.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Seconds-long sizes for the self-check; the numbers mean nothing.
  bool tiny = false;
  /// Scratch directory for datasets (emptied by the caller).
  std::string work_dir;
  /// Where a traced run writes its Chrome trace-event JSON ("" = nowhere).
  std::string trace_out;
};

/// The metric vocabulary, in output order: name and unit. Every workload
/// reports every metric; one that a workload bypasses reads 0 in the
/// per-layer table.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& LayerMetrics();

/// Collects one run's results and prints the final JSON line.
class Report {
 public:
  Report();

  void SetEndToEnd(const std::string& name, double value);
  void SetLayer(const std::string& name, double value);
  /// A human-readable result line (printed before the JSON line).
  void Note(const std::string& line);
  /// Records a wrong answer: the run reports correct=false and exits 1.
  void Fail(const std::string& what);
  /// Counts one attempted operation; a non-OK status counts as failed.
  void CountOp(const Status& status);
  /// Counts operations tallied elsewhere (e.g. on worker threads).
  void CountOps(uint64_t attempted, uint64_t failed);

  bool correct() const { return failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// The final line: {"correct", "attempted", "failed", "metrics"} with the
  /// end-to-end metrics (traced = false) or the per-layer ones.
  std::string Json(bool traced) const;

 private:
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layers_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ------------------------------------------------------------ timing ----

/// Steady-clock seconds on the flight recorder's timebase.
double NowSeconds();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Exact nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);

// ----------------------------------------------------------- tracing ----

/// Turns all tracing on or off at once: the program's flight recorder, its
/// metrics-registry kill switch, and the benchmark's own spans.
void SetTracing(bool on);

/// A benchmark span around one call into a layer's public function. Spans
/// nest per thread; a span with no open parent on its thread starts a new
/// trace id, and its children carry that id and a parent link. Free while
/// tracing is off.
class LayerSpan {
 public:
  LayerSpan(const char* layer, const char* name);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  bool armed_;
};

/// Aggregate of every span of one layer: wall time, and self time (span
/// time minus the time its child spans cover).
struct LayerTime {
  double total_ms = 0;
  double self_ms = 0;
  uint64_t spans = 0;
};
std::map<std::string, LayerTime> LayerTimes();

/// Writes the benchmark's retained spans plus the program's own
/// `FlightRecorder::ChromeTraceJson()` events as one trace-event file.
Status WriteChromeTrace(const std::string& path);

/// Per-stage flight-recorder totals at one instant; differences of two
/// snapshots attribute stage time to what ran between them.
struct StageTotals {
  std::array<uint64_t, kNumTraceStages> count{};
  std::array<uint64_t, kNumTraceStages> ns{};

  static StageTotals Now();
  void AddDelta(const StageTotals& before, const StageTotals& after);
  double Ms(TraceStage stage) const;
  uint64_t Count(TraceStage stage) const;
};

// ------------------------------------------------------------ memory ----

/// Peak resident set size of the timed phase: `ResetPeakRss` drops the
/// kernel's high-water mark to the current RSS (via /proc/self/clear_refs;
/// on kernels without it the peak spans the whole process) and `PeakRssMb`
/// reads it back.
void ResetPeakRss();
double PeakRssMb();

// ----------------------------------------------------------- helpers ----

/// The serialized bytes of a sample list (what "byte-identical" compares).
std::vector<uint8_t> SampleListBytes(const SampleList<Key>& list);

/// Repetitions of the setup phase; `setup_s` reports their median.
inline constexpr int kSetupRepetitions = 3;

/// Drives the timed phase of a closed-loop workload with one client. Runs
/// `op` once as a discarded warm-up, then repeatedly until `seconds` have
/// passed and at least two ops ran. In a traced run the ops alternate
/// traced / untraced, starting traced, so per-layer numbers come from the
/// traced half and the tracing overhead compares the two halves.
/// `op(warmup, traced)` returns false to stop early (an op failed).
/// Returns the number of timed ops.
int RunOpLoop(const RunConfig& config,
              const std::function<bool(bool warmup, bool traced)>& op);

/// "n=<count> min=<min> p50=<median>" plus the highest of p90, p99 and p99.9 that
/// has at least ten samples beyond it.
std::string Summary(const std::vector<double>& values, const char* unit);

/// Headline traced vs untraced: median(traced) / median(untraced) - 1.
double OverheadFrac(const std::vector<double>& traced,
                    const std::vector<double>& untraced);

std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
}  // namespace opaq

#endif  // OPAQ_PERFBENCH_HARNESS_H_
