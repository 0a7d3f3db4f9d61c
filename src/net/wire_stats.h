#ifndef OPAQ_NET_WIRE_STATS_H_
#define OPAQ_NET_WIRE_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "telemetry/metrics.h"
#include "util/status.h"

namespace opaq {

/// Payload codec of the observability ops (`kStats` / `kStatsData`):
/// a `MetricsSnapshot` flattened into one frame. The decoder validates
/// structurally and fails with a `Status` — a corrupt or hostile payload
/// must surface as a sticky stream error, never a CHECK-abort — matching
/// the other codecs' discipline (net/wire_query.h is the exemplar).
///
/// The encoder is deterministic byte-for-byte (fixed-layout structs,
/// metrics in registry order = sorted by name), which is what lets the
/// golden `wire.bin` pin the layout.

/// Decode-side cap on metrics per snapshot: far above any sane registry,
/// far below what could amplify into trouble.
inline constexpr uint32_t kMaxWireStatsMetrics = 4096;
/// Decode-side cap on one metric's name length.
inline constexpr uint32_t kMaxWireStatsNameLen = 512;
/// Decode-side cap on one histogram's retained samples.
inline constexpr uint32_t kMaxWireStatsSamples = 1u << 20;
/// The snapshot layout version this build encodes and decodes.
inline constexpr uint32_t kWireStatsVersion = 1;

/// `kStatsData` payload: header + one record per metric.
inline std::vector<uint8_t> EncodeStatsPayload(
    const MetricsSnapshot& snapshot) {
  WireStatsHeader header;
  header.stats_version = snapshot.stats_version;
  header.num_metrics = static_cast<uint32_t>(snapshot.metrics.size());
  size_t bytes = sizeof(header);
  for (const MetricSample& metric : snapshot.metrics) {
    bytes += sizeof(WireStatsMetric) + metric.name.size();
    if (metric.type == MetricType::kHistogram) {
      bytes += sizeof(WireStatsHistogram) +
               metric.histogram.samples.size() * sizeof(uint64_t);
    } else {
      bytes += sizeof(uint64_t);
    }
  }
  PayloadWriter out(bytes);
  out.Put(header);
  for (const MetricSample& metric : snapshot.metrics) {
    WireStatsMetric record;
    record.name_len = static_cast<uint16_t>(metric.name.size());
    record.type = static_cast<uint8_t>(metric.type);
    out.Put(record);
    out.PutString(metric.name);
    if (metric.type == MetricType::kHistogram) {
      WireStatsHistogram hist;
      hist.count = metric.histogram.count;
      hist.sum = metric.histogram.sum;
      hist.subrun_size = metric.histogram.subrun_size;
      hist.num_runs = metric.histogram.num_runs;
      hist.num_samples =
          static_cast<uint32_t>(metric.histogram.samples.size());
      out.Put(hist);
      out.PutArray(metric.histogram.samples);
    } else {
      out.Put(metric.value);
    }
  }
  return out.Take();
}

/// Decodes and validates a `kStatsData` payload. Every record boundary is
/// length-checked before being read; counts are bounded by the bytes
/// actually present BEFORE any reserve (attacker-controlled counts must
/// never turn into allocation bombs); histogram samples must be sorted
/// (the invariant every renderer's rank arithmetic relies on).
inline Result<MetricsSnapshot> DecodeStatsPayload(const uint8_t* payload,
                                                  size_t len) {
  PayloadReader in(payload, len, "STATS_DATA");
  WireStatsHeader header;
  OPAQ_RETURN_IF_ERROR(in.Read(&header));
  if (header.stats_version != kWireStatsVersion) {
    return Status::IoError("STATS_DATA snapshot layout version " +
                           std::to_string(header.stats_version) +
                           " is not the supported version " +
                           std::to_string(kWireStatsVersion));
  }
  if (header.num_metrics > kMaxWireStatsMetrics) {
    return Status::IoError(
        "STATS_DATA claims " + std::to_string(header.num_metrics) +
        " metrics (protocol cap " + std::to_string(kMaxWireStatsMetrics) +
        ")");
  }
  // Bound the count by the bytes actually present BEFORE reserving.
  if (header.num_metrics > in.remaining() / sizeof(WireStatsMetric)) {
    return Status::IoError(
        "STATS_DATA claims " + std::to_string(header.num_metrics) +
        " metrics but carries only " + std::to_string(in.remaining()) +
        " payload bytes");
  }
  MetricsSnapshot out;
  out.stats_version = header.stats_version;
  out.metrics.reserve(header.num_metrics);
  for (uint32_t m = 0; m < header.num_metrics; ++m) {
    WireStatsMetric record;
    OPAQ_RETURN_IF_ERROR(in.Read(&record));
    if (record.reserved != 0) {
      return Status::IoError("STATS_DATA metric " + std::to_string(m) +
                             " sets reserved bits");
    }
    if (record.type > static_cast<uint8_t>(MetricType::kHistogram)) {
      return Status::IoError("STATS_DATA metric " + std::to_string(m) +
                             " has unknown type tag " +
                             std::to_string(record.type));
    }
    if (record.name_len == 0 || record.name_len > kMaxWireStatsNameLen) {
      return Status::IoError("STATS_DATA metric " + std::to_string(m) +
                             " has invalid name length " +
                             std::to_string(record.name_len));
    }
    MetricSample metric;
    OPAQ_RETURN_IF_ERROR(in.ReadString(record.name_len, &metric.name));
    metric.type = static_cast<MetricType>(record.type);
    if (metric.type == MetricType::kHistogram) {
      WireStatsHistogram hist;
      OPAQ_RETURN_IF_ERROR(in.Read(&hist));
      if (hist.reserved != 0) {
        return Status::IoError("STATS_DATA metric " + std::to_string(m) +
                               "'s histogram sets reserved bits");
      }
      if (hist.num_samples > kMaxWireStatsSamples) {
        return Status::IoError(
            "STATS_DATA metric " + std::to_string(m) + " claims " +
            std::to_string(hist.num_samples) + " samples (protocol cap " +
            std::to_string(kMaxWireStatsSamples) + ")");
      }
      if (hist.num_samples != 0 && hist.subrun_size == 0) {
        return Status::IoError("STATS_DATA metric " + std::to_string(m) +
                               "'s histogram has sub-run size 0");
      }
      metric.histogram.count = hist.count;
      metric.histogram.sum = hist.sum;
      metric.histogram.subrun_size = hist.subrun_size;
      metric.histogram.num_runs = hist.num_runs;
      OPAQ_RETURN_IF_ERROR(
          in.ReadArray(hist.num_samples, &metric.histogram.samples));
      if (!std::is_sorted(metric.histogram.samples.begin(),
                          metric.histogram.samples.end())) {
        return Status::IoError("STATS_DATA metric " + std::to_string(m) +
                               "'s histogram samples are not sorted");
      }
      metric.value = metric.histogram.count;
    } else {
      OPAQ_RETURN_IF_ERROR(in.Read(&metric.value));
    }
    out.metrics.push_back(std::move(metric));
  }
  OPAQ_RETURN_IF_ERROR(in.ExpectEnd());
  return out;
}

}  // namespace opaq

#endif  // OPAQ_NET_WIRE_STATS_H_
