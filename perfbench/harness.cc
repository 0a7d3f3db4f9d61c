#include "perfbench/harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/sketch_io.h"
#include "io/block_device.h"
#include "telemetry/metrics.h"
#include "util/check.h"

namespace opaq {
namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"build_ms", "ms"},
      {"op_ms", "ms"},           {"ops_per_s", "1/s"},
      {"rank_error_ppm", "ppm"}, {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"select.sample_ms", "ms"},
      {"select.runs", "count"},
      {"select.kernel_melem_s", "Mel/s"},
      {"core.merge_ms", "ms"},
      {"core.merges", "count"},
      {"core.exact_pass_ms", "ms"},
      {"core.exact_ns_per_elem_bracket", "ns"},
      {"core.estimate_us", "us"},
      {"core.tail_clamped_bounds", "count"},
      {"io.read_wait_ms", "ms"},
      {"io.runs", "count"},
      {"io.extent_decode_ms", "ms"},
      {"io.extents_decoded", "count"},
      {"io.packed_bytes", "bytes"},
      {"io.unpacked_bytes", "bytes"},
      {"io.pack_ratio", "ratio"},
      {"io.delta_decode_mb_s", "MB/s"},
      {"util.crc32_mb_s", "MB/s"},
      {"util.crc_bytes", "bytes"},
      {"ingest.append_ms", "ms"},
      {"ingest.segments", "count"},
      {"ingest.write_amp", "ratio"},
      {"ingest.schedule_lag_ms", "ms"},
      {"ingest.tail_sketch_ms", "ms"},
      {"ingest.absorb_us", "us"},
      {"ingest.refresh_ms", "ms"},
      {"net.wire_send_ms", "ms"},
      {"net.wire_recv_ms", "ms"},
      {"net.bytes_sent", "bytes"},
      {"net.bytes_received", "bytes"},
      {"net.requests_served", "count"},
      {"net.bytes_per_elem", "bytes"},
      {"net.server_batch_us_p50", "us"},
      {"core.self_frac", "ratio"},
      {"io.self_frac", "ratio"},
      {"ingest.self_frac", "ratio"},
      {"net.self_frac", "ratio"},
      {"telemetry.overhead_frac", "ratio"},
  };
  return defs;
}

namespace {

bool Known(const std::vector<MetricDef>& defs, const std::string& name) {
  return std::any_of(defs.begin(), defs.end(),
                     [&](const MetricDef& def) { return name == def.name; });
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  return Format("%.10g", value);
}

}  // namespace

Report::Report() {
  for (const MetricDef& def : LayerMetrics()) layers_[def.name] = 0;
}

void Report::SetEndToEnd(const std::string& name, double value) {
  OPAQ_CHECK(Known(EndToEndMetrics(), name)) << name;
  end_to_end_[name] = value;
}

void Report::SetLayer(const std::string& name, double value) {
  OPAQ_CHECK(Known(LayerMetrics(), name)) << name;
  layers_[name] = value;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::CountOp(const Status& status) {
  ++attempted_;
  if (!status.ok()) ++failed_;
}

void Report::CountOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::Json(bool traced) const {
  const std::vector<MetricDef>& defs =
      traced ? LayerMetrics() : EndToEndMetrics();
  const std::map<std::string, double>& values =
      traced ? layers_ : end_to_end_;
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    OPAQ_CHECK(it != values.end()) << "metric never set: " << defs[i].name;
    json << (i == 0 ? "" : ", ") << "\"" << defs[i].name
         << "\": {\"value\": " << JsonNumber(it->second) << ", \"unit\": \""
         << defs[i].unit << "\"}";
  }
  json << "}}";
  return json.str();
}

// ------------------------------------------------------------ timing ----

double NowSeconds() {
  return static_cast<double>(FlightRecorder::NowNs()) * 1e-9;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  std::nth_element(values.begin(), values.begin() + mid - 1, values.end());
  return (values[mid - 1] + upper) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::min(std::max<size_t>(rank, 1), values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

std::string Summary(const std::vector<double>& values, const char* unit) {
  const double min =
      values.empty() ? 0 : *std::min_element(values.begin(), values.end());
  std::string out = Format("n=%zu min=%.4g p50=%.4g %s", values.size(), min,
                           Median(values), unit);
  const size_t n = values.size();
  const double tail = n >= 10000 ? 99.9 : n >= 1000 ? 99 : n >= 100 ? 90 : 0;
  if (tail > 0) {
    out += Format(" p%g=%.4g %s", tail, Percentile(values, tail), unit);
  }
  return out;
}

double OverheadFrac(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  const double base = Median(untraced);
  return base > 0 ? Median(traced) / base - 1 : 0;
}

std::string Format(const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

// ----------------------------------------------------------- tracing ----

namespace {

struct Frame {
  uint64_t start_ns = 0;
  uint64_t child_ns = 0;
  uint64_t span_id = 0;
  uint64_t trace_id = 0;
  uint64_t parent_id = 0;
  const char* layer = "";
  const char* name = "";
};

struct SpanEvent {
  Frame frame;
  uint64_t duration_ns = 0;
  uint32_t tid = 0;
};

// The trace file keeps the first spans only; the per-layer aggregates
// cover every span.
constexpr size_t kMaxRetainedSpans = 20000;

thread_local std::vector<Frame> t_open_spans;
std::atomic<bool> g_spans_on{false};
std::atomic<uint64_t> g_next_span_id{1};
std::mutex g_spans_mutex;
std::map<std::string, LayerTime> g_layer_times;  // guarded by g_spans_mutex
std::vector<SpanEvent> g_retained;               // guarded by g_spans_mutex

uint32_t ThreadId() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
}

}  // namespace

void SetTracing(bool on) {
  FlightRecorder::Global().set_enabled(on);
  MetricsRegistry::Global().set_enabled(on);
  g_spans_on.store(on, std::memory_order_relaxed);
}

LayerSpan::LayerSpan(const char* layer, const char* name)
    : armed_(g_spans_on.load(std::memory_order_relaxed)) {
  if (!armed_) return;
  Frame frame;
  frame.layer = layer;
  frame.name = name;
  frame.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  if (t_open_spans.empty()) {
    frame.trace_id = frame.span_id;
  } else {
    frame.trace_id = t_open_spans.back().trace_id;
    frame.parent_id = t_open_spans.back().span_id;
  }
  frame.start_ns = FlightRecorder::NowNs();
  t_open_spans.push_back(frame);
}

LayerSpan::~LayerSpan() {
  if (!armed_) return;
  const uint64_t end_ns = FlightRecorder::NowNs();
  const Frame frame = t_open_spans.back();
  t_open_spans.pop_back();
  const uint64_t duration = end_ns - frame.start_ns;
  const uint64_t self =
      duration > frame.child_ns ? duration - frame.child_ns : 0;
  if (!t_open_spans.empty()) t_open_spans.back().child_ns += duration;
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  LayerTime& layer = g_layer_times[frame.layer];
  layer.total_ms += static_cast<double>(duration) * 1e-6;
  layer.self_ms += static_cast<double>(self) * 1e-6;
  ++layer.spans;
  if (g_retained.size() < kMaxRetainedSpans) {
    g_retained.push_back({frame, duration, ThreadId()});
  }
}

std::map<std::string, LayerTime> LayerTimes() {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  return g_layer_times;
}

Status WriteChromeTrace(const std::string& path) {
  std::ostringstream json;
  json << "{\"traceEvents\":[";
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(g_spans_mutex);
    for (const SpanEvent& event : g_retained) {
      json << (first ? "" : ",") << "{\"name\":\"" << event.frame.layer
           << ":" << event.frame.name << "\",\"cat\":\"" << event.frame.layer
           << "\",\"ph\":\"X\",\"ts\":"
           << Format("%.3f", static_cast<double>(event.frame.start_ns) / 1e3)
           << ",\"dur\":"
           << Format("%.3f", static_cast<double>(event.duration_ns) / 1e3)
           << ",\"pid\":1,\"tid\":" << event.tid
           << ",\"args\":{\"trace_id\":" << event.frame.trace_id
           << ",\"span_id\":" << event.frame.span_id
           << ",\"parent_id\":" << event.frame.parent_id << "}}";
      first = false;
    }
  }
  // Splice in the program's own stage spans (same steady-clock timebase).
  const std::string program = FlightRecorder::Global().ChromeTraceJson();
  const size_t open = program.find('[');
  const size_t close = program.rfind(']');
  if (open != std::string::npos && close != std::string::npos &&
      close > open + 1) {
    json << (first ? "" : ",") << program.substr(open + 1, close - open - 1);
  }
  json << "],\"displayTimeUnit\":\"ms\"}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json.str();
  out.close();
  if (!out) return Status::IoError("cannot write trace file " + path);
  return Status::OK();
}

StageTotals StageTotals::Now() {
  const FlightRecorder& recorder = FlightRecorder::Global();
  StageTotals totals;
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    totals.count[i] = recorder.StageCount(static_cast<TraceStage>(i));
    totals.ns[i] = recorder.StageTotalNs(static_cast<TraceStage>(i));
  }
  return totals;
}

void StageTotals::AddDelta(const StageTotals& before,
                           const StageTotals& after) {
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    count[i] += after.count[i] - before.count[i];
    ns[i] += after.ns[i] - before.ns[i];
  }
}

double StageTotals::Ms(TraceStage stage) const {
  return static_cast<double>(ns[static_cast<size_t>(stage)]) * 1e-6;
}

uint64_t StageTotals::Count(TraceStage stage) const {
  return count[static_cast<size_t>(stage)];
}

// ------------------------------------------------------------ memory ----

void ResetPeakRss() {
  // "5" resets the peak-RSS high-water mark (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ----------------------------------------------------------- helpers ----

std::vector<uint8_t> SampleListBytes(const SampleList<Key>& list) {
  MemoryBlockDevice device;
  OPAQ_CHECK_OK(SaveSampleList(list, &device));
  auto size = device.Size();
  OPAQ_CHECK_OK(size.status());
  std::vector<uint8_t> bytes(*size);
  OPAQ_CHECK_OK(device.ReadAt(0, bytes.data(), bytes.size()));
  return bytes;
}

int RunOpLoop(const RunConfig& config,
              const std::function<bool(bool warmup, bool traced)>& op) {
  SetTracing(false);
  if (!op(/*warmup=*/true, /*traced=*/false)) return 0;
  const double start = NowSeconds();
  int ops = 0;
  for (;;) {
    const bool traced = config.trace && ops % 2 == 0;
    SetTracing(traced);
    const bool ok = op(/*warmup=*/false, traced);
    SetTracing(false);
    if (!ok) break;
    ++ops;
    if (ops >= 2 && NowSeconds() - start >= config.seconds) break;
  }
  return ops;
}

}  // namespace perfbench
}  // namespace opaq
