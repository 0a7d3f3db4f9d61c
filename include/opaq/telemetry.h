#ifndef OPAQ_INCLUDE_OPAQ_TELEMETRY_H_
#define OPAQ_INCLUDE_OPAQ_TELEMETRY_H_

/// Public observability surface: the flight-recorder telemetry every OPAQ
/// process carries (see README "Observability").
///
///  - `MetricsRegistry` (telemetry/metrics.h) — named `Counter` / `Gauge` /
///    `LatencyHistogram` metrics with stable pointers and lock-free hot-path
///    updates. The histograms are self-hosted on the paper's own mergeable
///    sample-list sketch, so a histogram snapshot carries certified
///    quantile brackets. `MetricsRegistry::Global()` is what the engine,
///    the frame servers, and both daemons publish into.
///  - `FlightRecorder` / `TraceSpan` (telemetry/trace.h) — scoped per-stage
///    spans on the hot pipeline (run read, extent decode, sample, k-way
///    merge, §4 exact pass, wire send/recv) recorded into a bounded
///    lock-free ring, exportable as Chrome trace-event JSON.
///  - `FormatStatsText` / `FormatStatsPrometheus`
///    (telemetry/stats_format.h) — the one snapshot renderer both daemons'
///    shutdown dumps, `--stats-interval` ticks, and `opaq_cli stats` share.
///
/// Over the wire: `kStats`/`kStatsData` (net/wire_stats.h,
/// reachable via opaq/net.h) serve a registry snapshot from any daemon to
/// `opaq_cli stats host:port`.

#include "telemetry/metrics.h"
#include "telemetry/stats_format.h"
#include "telemetry/trace.h"

#endif  // OPAQ_INCLUDE_OPAQ_TELEMETRY_H_
