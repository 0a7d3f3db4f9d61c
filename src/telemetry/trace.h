#ifndef OPAQ_TELEMETRY_TRACE_H_
#define OPAQ_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace opaq {

/// Per-stage tracing for the hot pipeline: scoped `TraceSpan`s record into a
/// bounded lock-free ring buffer (the flight recorder) plus per-stage
/// cumulative totals. The hooks are compiled in and cheap enough to leave
/// on — a disabled recorder costs one relaxed load per span; an enabled one
/// costs two clock reads and one ring-slot write per span, and spans sit at
/// run/frame granularity (thousands of elements each), not per element.

/// The instrumented pipeline stages.
enum class TraceStage : uint8_t {
  kRunRead = 0,      ///< one `NextRun` wait (disk or remote)
  kExtentDecode = 1, ///< one packed extent unpacked
  kSample = 2,       ///< one run regular-sampled (MultiSelect)
  kMerge = 3,        ///< one sample-list k-way merge / finalize
  kExactPass = 4,    ///< one shared §4 pass (QuerySession::ExactValues)
  kWireSend = 5,     ///< one frame written to a socket
  kWireRecv = 6,     ///< one frame read off a socket
};
inline constexpr size_t kNumTraceStages = 7;

const char* TraceStageName(TraceStage stage);

/// One completed span. Timestamps are steady-clock nanoseconds (process-
/// relative; only differences are meaningful).
struct TraceEvent {
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint32_t tid = 0;  ///< hashed thread id
  TraceStage stage = TraceStage::kRunRead;
};

/// Bounded ring of the most recent spans — the flight recorder. Writers
/// take slots with one `fetch_add` and publish through a per-slot seqlock
/// whose payload fields are themselves atomics, so concurrent readers
/// (stats snapshots, trace export) are data-race-free under TSan; a reader
/// simply discards any slot a writer touched mid-copy. A writer whose slot
/// is still being written by another (the ring wrapped within one write)
/// drops its span from the ring and counts it in `dropped()`.
class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two.
  explicit FlightRecorder(size_t capacity = 4096);

  /// The recorder every built-in span records into.
  static FlightRecorder& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  void Record(TraceStage stage, uint64_t start_ns, uint64_t duration_ns);

  /// Consistent copies of the retained spans, oldest first. Slots being
  /// overwritten during the scan are skipped, so under heavy concurrent
  /// writing the result may hold fewer than `size()` events.
  std::vector<TraceEvent> Events() const;

  size_t capacity() const { return slots_.size(); }
  /// Spans recorded since construction/Reset (may exceed `capacity`).
  uint64_t recorded() const { return next_.load(std::memory_order_relaxed); }

  /// Spans kept out of the ring because their slot was mid-write.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Cumulative per-stage totals (never evicted, unlike ring slots).
  uint64_t StageCount(TraceStage stage) const;
  uint64_t StageTotalNs(TraceStage stage) const;

  /// The retained spans as Chrome trace-event JSON ("Load profile" in
  /// chrome://tracing or Perfetto).
  std::string ChromeTraceJson() const;

  /// Steady-clock now, in the recorder's nanosecond timebase.
  static uint64_t NowNs();

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< even = stable, odd = being written
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> duration_ns{0};
    std::atomic<uint64_t> meta{0};  ///< tid << 8 | stage
  };

  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> stage_count_[kNumTraceStages] = {};
  std::atomic<uint64_t> stage_ns_[kNumTraceStages] = {};
};

/// RAII span: stamps the clock at construction and records the stage on
/// destruction. When the recorder is disabled at construction the span is
/// free (no clock reads).
class TraceSpan {
 public:
  explicit TraceSpan(TraceStage stage, FlightRecorder* recorder = nullptr)
      : recorder_(recorder != nullptr ? recorder
                                      : &FlightRecorder::Global()),
        stage_(stage),
        armed_(recorder_->enabled()) {
    if (armed_) start_ns_ = FlightRecorder::NowNs();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (armed_) {
      recorder_->Record(stage_, start_ns_,
                        FlightRecorder::NowNs() - start_ns_);
    }
  }

 private:
  FlightRecorder* recorder_;
  TraceStage stage_;
  bool armed_;
  uint64_t start_ns_ = 0;
};

}  // namespace opaq

#endif  // OPAQ_TELEMETRY_TRACE_H_
