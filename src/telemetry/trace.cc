#include "telemetry/trace.h"

#include <chrono>
#include <functional>
#include <sstream>
#include <thread>

#include "util/check.h"

namespace opaq {
namespace {

uint32_t HashedThreadId() {
  static thread_local const uint32_t tid = static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
  return tid;
}

size_t RoundUpPow2(size_t n) {
  size_t pow2 = 1;
  while (pow2 < n) pow2 <<= 1;
  return pow2;
}

}  // namespace

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kRunRead: return "run_read";
    case TraceStage::kExtentDecode: return "extent_decode";
    case TraceStage::kSample: return "sample";
    case TraceStage::kMerge: return "merge";
    case TraceStage::kExactPass: return "exact_pass";
    case TraceStage::kWireSend: return "wire_send";
    case TraceStage::kWireRecv: return "wire_recv";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(RoundUpPow2(capacity == 0 ? 1 : capacity)),
      mask_(slots_.size() - 1) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

uint64_t FlightRecorder::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void FlightRecorder::Record(TraceStage stage, uint64_t start_ns,
                            uint64_t duration_ns) {
  const size_t index = static_cast<size_t>(stage);
  OPAQ_DCHECK(index < kNumTraceStages);
  stage_count_[index].fetch_add(1, std::memory_order_relaxed);
  stage_ns_[index].fetch_add(duration_ns, std::memory_order_relaxed);

  Slot& slot = slots_[next_.fetch_add(1, std::memory_order_relaxed) & mask_];
  // Per-slot seqlock with one writer at a time: claim the slot by moving
  // its seq from even to odd, write the payload, publish with the next even
  // seq. A writer that laps onto a slot still being written drops its event
  // rather than share the slot, since two writers would leave the seq even
  // while both still write (an odd seq fails the claim, which expects an
  // even one). The claim is acquire, so the previous writer's payload
  // stores come before this writer's; the payload stores are release, so
  // a reader that loads one of them also sees the odd seq that preceded it.
  uint64_t seq = slot.seq.load(std::memory_order_relaxed) & ~uint64_t{1};
  if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot.start_ns.store(start_ns, std::memory_order_release);
  slot.duration_ns.store(duration_ns, std::memory_order_release);
  slot.meta.store((static_cast<uint64_t>(HashedThreadId()) << 8) |
                      static_cast<uint64_t>(stage),
                  std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);
}

std::vector<TraceEvent> FlightRecorder::Events() const {
  const uint64_t written = next_.load(std::memory_order_acquire);
  const size_t capacity = slots_.size();
  const uint64_t retained = written < capacity ? written : capacity;
  std::vector<TraceEvent> out;
  out.reserve(retained);
  // Oldest retained ticket first.
  for (uint64_t ticket = written - retained; ticket < written; ++ticket) {
    const Slot& slot = slots_[ticket & mask_];
    const uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    // Acquire payload loads keep the second seq load after them: if any of
    // them read a later writer's store, that load sees the writer's seq.
    TraceEvent event;
    event.start_ns = slot.start_ns.load(std::memory_order_acquire);
    event.duration_ns = slot.duration_ns.load(std::memory_order_acquire);
    const uint64_t meta = slot.meta.load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;
    event.tid = static_cast<uint32_t>(meta >> 8);
    const uint8_t stage = static_cast<uint8_t>(meta & 0xff);
    if (stage >= kNumTraceStages) continue;
    event.stage = static_cast<TraceStage>(stage);
    out.push_back(event);
  }
  return out;
}

uint64_t FlightRecorder::StageCount(TraceStage stage) const {
  return stage_count_[static_cast<size_t>(stage)].load(
      std::memory_order_relaxed);
}

uint64_t FlightRecorder::StageTotalNs(TraceStage stage) const {
  return stage_ns_[static_cast<size_t>(stage)].load(
      std::memory_order_relaxed);
}

std::string FlightRecorder::ChromeTraceJson() const {
  // The trace-event format: complete ("ph":"X") events with microsecond
  // timestamps; pid is fixed (one process), tid is the hashed thread id.
  std::ostringstream json;
  json << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : Events()) {
    if (!first) json << ",";
    first = false;
    json << "{\"name\":\"" << TraceStageName(event.stage)
         << "\",\"cat\":\"opaq\",\"ph\":\"X\",\"ts\":"
         << event.start_ns / 1000 << "." << (event.start_ns % 1000) / 100
         << ",\"dur\":" << event.duration_ns / 1000 << "."
         << (event.duration_ns % 1000) / 100 << ",\"pid\":1,\"tid\":"
         << event.tid << "}";
  }
  json << "]}";
  return json.str();
}

}  // namespace opaq
