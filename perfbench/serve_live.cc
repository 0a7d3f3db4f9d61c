// serve-live: a QueryServer on loopback serving a LiveDataset that starts
// as one uniform base segment. Two closed-loop connections fire 8-request
// estimate batches back to back (queryd_loadgen's mix of quantile, rank and
// by-rank requests). One open-loop ingest thread appends a durable
// 10K-key segment every 50 ms and then calls QueryServer::Refresh, whose
// refresher sketches the tail over Source::OpenLive(dir, n_absorbed) and
// Absorbs it. The net frame loop, the estimator, the ingest commit path and
// Absorb do the work here; sampling and the exact pass do almost none.
// Small appends are also where the live certificate is worst, which
// rank_error_ppm shows.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "data/dataset.h"
#include "ingest/live_dataset.h"
#include "net/query_client.h"
#include "net/query_server.h"
#include "opaq/engine.h"
#include "perfbench/workloads.h"
#include "telemetry/metrics.h"

namespace opaq {
namespace perfbench {

namespace {

constexpr double kAppendPeriodSeconds = 0.05;
constexpr int kClients = 2;
constexpr int kWarmupBatches = 100;
// Every kSampleEvery-th batch of a client, up to kMaxSampled, is kept and
// checked byte for byte against a local session of the same epoch after
// the run.
constexpr uint64_t kSampleEvery = 256;
constexpr size_t kMaxSampled = 4096;
constexpr size_t kPayloadCapacity = 2048;
// A traced run alternates traced and untraced windows of this length.
constexpr double kTraceWindowSeconds = 0.5;

std::vector<Key> SegmentKeys(uint64_t seed, uint64_t index, uint64_t n) {
  DatasetSpec spec;
  spec.n = n;
  spec.seed = seed * 1000003 + index + 1;
  spec.distribution = Distribution::kUniform;
  return GenerateDataset<Key>(spec);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// A batch answered over TCP, kept for the after-run byte check.
struct SampledBatch {
  uint64_t index = 0;
  std::vector<uint8_t> payload;
};

/// What one query connection measured. The buffers are allocated and
/// touched before the timed phase, so recording into them does not move
/// the measured peak RSS.
struct ClientLog {
  explicit ClientLog(size_t capacity)
      : latency_us(capacity, 0.0), traced(capacity, 0), sampled(kMaxSampled) {
    for (SampledBatch& batch : sampled) {
      batch.payload.assign(kPayloadCapacity, 0);
      batch.payload.clear();
    }
  }

  std::vector<double> latency_us;
  std::vector<uint8_t> traced;
  size_t recorded = 0;
  std::vector<SampledBatch> sampled;
  size_t sampled_count = 0;
  uint64_t batches = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Status error = Status::OK();
};

/// What the ingest thread measured, one entry per append cycle.
struct IngestLog {
  std::vector<double> lag_ms, append_ms, refresh_ms, queryable_ms;
  std::vector<bool> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Segment indices whose append was acknowledged, in append order.
  std::vector<uint64_t> acked;
};

/// What the refresher measured (it runs inside Refresh on the ingest
/// thread).
struct RefreshLog {
  std::vector<double> tail_sketch_ms, absorb_us;
  std::vector<bool> traced;
  double io_stall_s = 0;
  uint64_t runs = 0;
  uint64_t failures = 0;
};

}  // namespace

Status RunServeLive(const RunConfig& config, Report* report) {
  const uint64_t base_n = config.tiny ? 250000 : 4000000;
  const uint64_t segment_n = config.tiny ? 2000 : 10000;
  const uint64_t appends = std::max<uint64_t>(
      2, static_cast<uint64_t>(config.seconds / kAppendPeriodSeconds));
  const OpaqConfig opaq = BenchConfig(config);

  DatasetSpec spec;
  spec.n = base_n;
  spec.seed = config.seed;
  spec.distribution = Distribution::kUniform;
  std::vector<Key> base = GenerateDataset<Key>(spec);

  // Declared before the server: its builder and refresher write here.
  RefreshLog refresh_log;
  std::atomic<bool> window_traced{false};
  std::string dir;
  std::unique_ptr<LiveDataset<Key>> live;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<QuerySession<Key>> epoch1;
  auto builder = [&dir, opaq]() -> Result<QuerySession<Key>> {
    auto source = Source<Key>::OpenLive(dir);
    if (!source.ok()) return source.status();
    return Engine<Key>(opaq, std::move(source).value()).Build();
  };
  // The incremental refresher of `opaq_queryd --watch`, estimate-only over
  // the delta: attaching every tail as a source would keep every segment
  // of every epoch open.
  auto refresher = [&dir, opaq, &refresh_log, &window_traced](
                       const QuerySession<Key>& current)
      -> Result<QuerySession<Key>> {
    const bool traced = window_traced.load(std::memory_order_relaxed);
    const double t0 = NowSeconds();
    Result<Source<Key>> tail = Status::Internal("never opened");
    {
      LayerSpan span("ingest", "Source::OpenLive");
      tail = Source<Key>::OpenLive(dir, current.total_elements());
    }
    Result<QuerySession<Key>> delta = Status::Internal("never built");
    if (tail.ok()) {
      Engine<Key> engine(opaq, *tail);
      {
        LayerSpan span("core", "Engine::Build");
        delta = engine.Build();
      }
      if (traced) {
        refresh_log.io_stall_s += engine.stats().io_stall_seconds;
        refresh_log.runs += engine.stats().runs;
      }
    } else {
      delta = tail.status();
    }
    const double t1 = NowSeconds();
    if (!delta.ok()) {
      ++refresh_log.failures;
      return delta.status();
    }
    QuerySession<Key> next = current;
    Status absorbed = Status::OK();
    {
      LayerSpan span("core", "QuerySession::Absorb");
      absorbed = next.Absorb(delta->sample_list());
    }
    const double t2 = NowSeconds();
    if (!absorbed.ok()) {
      ++refresh_log.failures;
      return absorbed;
    }
    refresh_log.tail_sketch_ms.push_back((t1 - t0) * 1e3);
    refresh_log.absorb_us.push_back((t2 - t1) * 1e6);
    refresh_log.traced.push_back(traced);
    return next;
  };

  // Setup: a fresh live directory with the durable base segment, the
  // server with epoch 1 built, listening.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    server.reset();
    live.reset();
    dir = config.work_dir + "/live-" + std::to_string(rep);
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    const double start = NowSeconds();
    auto created = LiveDataset<Key>::Create(dir);
    if (!created.ok()) return created.status();
    live = std::make_unique<LiveDataset<Key>>(std::move(created).value());
    OPAQ_RETURN_IF_ERROR(live->Append(base));
    server = std::make_unique<QueryServer>();
    OPAQ_RETURN_IF_ERROR(
        server->Serve<Key>("live", builder, refresher));
    OPAQ_RETURN_IF_ERROR(server->Start());
    setup_s.push_back(NowSeconds() - start);
  }
  std::vector<Key>().swap(base);
  {
    auto first = builder();
    if (!first.ok()) return first.status();
    epoch1 = std::make_unique<QuerySession<Key>>(std::move(first).value());
  }
  const uint16_t port = server->port();

  // One untimed append cycle warms the commit and refresh paths.
  IngestLog ingest;
  OPAQ_RETURN_IF_ERROR(live->Append(SegmentKeys(config.seed, 0, segment_n)));
  OPAQ_RETURN_IF_ERROR(server->Refresh("live"));
  ingest.acked.push_back(0);
  refresh_log = RefreshLog();

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  // Room for far more batches per client than loopback delivers.
  const size_t capacity = static_cast<size_t>(config.seconds * 60000) + 10000;
  std::vector<ClientLog> clients(kClients, ClientLog(capacity));
  std::vector<std::thread> client_threads;
  for (int c = 0; c < kClients; ++c) {
    client_threads.emplace_back([&, c] {
      ClientLog& log = clients[c];
      auto client = QueryClient<Key>::Connect("127.0.0.1", port, "live");
      if (!client.ok()) {
        log.error = client.status();
        ready.fetch_add(1);
        return;
      }
      uint64_t index = static_cast<uint64_t>(c) << 40;
      for (int w = 0; w < kWarmupBatches; ++w, ++index) {
        const std::vector<QueryRequest<Key>> batch = MixedBatch(index, base_n);
        auto payload = client->QueryPayload(batch);
        ++log.attempted;
        if (!payload.ok()) {
          ++log.failed;
          log.error = payload.status();
        }
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<QueryRequest<Key>> batch = MixedBatch(index, base_n);
        const bool traced = window_traced.load(std::memory_order_relaxed);
        Result<std::vector<uint8_t>> payload = Status::Internal("unsent");
        const double t0 = NowSeconds();
        {
          LayerSpan span("net", "QueryClient::QueryPayload");
          payload = client->QueryPayload(batch);
        }
        const double t1 = NowSeconds();
        ++log.attempted;
        if (!payload.ok()) {
          ++log.failed;
          log.error = payload.status();
          return;
        }
        if (log.recorded < log.latency_us.size()) {
          log.latency_us[log.recorded] = (t1 - t0) * 1e6;
          log.traced[log.recorded] = traced ? 1 : 0;
          ++log.recorded;
        }
        if (index % kSampleEvery == 0 && log.sampled_count < kMaxSampled) {
          SampledBatch& kept = log.sampled[log.sampled_count++];
          kept.index = index;
          kept.payload.assign(payload->begin(), payload->end());
        }
        ++log.batches;
        ++index;
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();

  std::atomic<bool> ingest_done{false};
  ResetPeakRss();
  const auto phase_start = std::chrono::steady_clock::now();
  const double start_s = NowSeconds();
  go.store(true, std::memory_order_release);
  std::thread ingest_thread([&] {
    for (uint64_t i = 0; i < appends; ++i) {
      const std::vector<Key> keys = SegmentKeys(config.seed, i + 1, segment_n);
      const auto due =
          phase_start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                kAppendPeriodSeconds * static_cast<double>(i)));
      std::this_thread::sleep_until(due);
      const double due_s =
          start_s + kAppendPeriodSeconds * static_cast<double>(i);
      const bool traced = window_traced.load(std::memory_order_relaxed);
      LayerSpan cycle("harness", "serve-live ingest cycle");
      const double t0 = NowSeconds();
      Status appended = Status::OK();
      {
        LayerSpan span("ingest", "LiveDataset::Append");
        appended = live->Append(keys);
      }
      const double t1 = NowSeconds();
      ++ingest.attempted;
      if (!appended.ok()) {
        ++ingest.failed;
        continue;
      }
      ingest.acked.push_back(i + 1);
      Status refreshed = Status::OK();
      {
        LayerSpan span("net", "QueryServer::Refresh");
        refreshed = server->Refresh("live");
      }
      const double t2 = NowSeconds();
      ++ingest.attempted;
      if (!refreshed.ok()) ++ingest.failed;
      ingest.lag_ms.push_back((t0 - due_s) * 1e3);
      ingest.append_ms.push_back((t1 - t0) * 1e3);
      ingest.refresh_ms.push_back((t2 - t1) * 1e3);
      ingest.queryable_ms.push_back((t2 - due_s) * 1e3);
      ingest.traced.push_back(traced);
    }
    ingest_done.store(true);
  });

  // The traced run alternates traced and untraced windows; the flight
  // recorder's stage totals are taken over the traced ones.
  StageTotals stages;
  const uint64_t sent_before = server->bytes_sent();
  const uint64_t received_before = server->bytes_received();
  const uint64_t requests_before = server->requests_served();
  for (int window = 0; !ingest_done.load(); ++window) {
    const bool traced = config.trace && window % 2 == 0;
    const StageTotals before = StageTotals::Now();
    SetTracing(traced);
    window_traced.store(traced);
    const double window_end = NowSeconds() + kTraceWindowSeconds;
    while (!ingest_done.load() && NowSeconds() < window_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    SetTracing(false);
    window_traced.store(false);
    if (traced) stages.AddDelta(before, StageTotals::Now());
  }
  ingest_thread.join();
  stop.store(true);
  for (std::thread& thread : client_threads) thread.join();
  const double phase_s = NowSeconds() - start_s;
  const double peak_mb = PeakRssMb();
  const uint64_t sent = server->bytes_sent() - sent_before;
  const uint64_t received = server->bytes_received() - received_before;
  const uint64_t requests = server->requests_served() - requests_before;

  // ------------------------------------------------------------ checks ----
  for (const ClientLog& log : clients) {
    if (!log.error.ok()) {
      report->Note("serve-live: a query connection failed: " +
                   log.error.ToString());
    }
  }
  auto info = server->SessionInfo("live");
  if (!info.ok()) return info.status();
  server->Stop();

  // Every acknowledged append must be in the reopened directory, intact.
  const uint64_t segments = ingest.acked.size();
  auto reader = LiveDatasetReader<Key>::Open(dir);
  if (!reader.ok()) return reader.status();
  if (reader->num_segments() != 1 + segments ||
      reader->size() != base_n + segments * segment_n) {
    report->Fail("serve-live: the reopened live dataset lost acknowledged "
                 "appends");
  } else {
    std::vector<Key> stored(segment_n);
    for (uint64_t i = 0; i < segments; ++i) {
      OPAQ_RETURN_IF_ERROR(
          reader->Read(base_n + i * segment_n, segment_n, stored.data()));
      if (stored != SegmentKeys(config.seed, ingest.acked[i], segment_n)) {
        report->Fail("serve-live: appended segment " + std::to_string(i) +
                     " reads back different keys");
        break;
      }
    }
  }

  // Replay the epochs locally: epoch1, then each segment sketched alone and
  // absorbed. Every sampled TCP batch must be byte-identical to the replay
  // of its epoch (found by the n its payload reports).
  std::map<uint64_t, std::vector<const SampledBatch*>> by_n;
  size_t sampled = 0;
  for (const ClientLog& log : clients) {
    for (size_t i = 0; i < log.sampled_count; ++i) {
      const SampledBatch& batch = log.sampled[i];
      auto decoded = DecodeQueryResultsPayload<Key>(batch.payload.data(),
                                                    batch.payload.size());
      if (!decoded.ok()) return decoded.status();
      by_n[decoded->total_elements].push_back(&batch);
      ++sampled;
    }
  }
  QuerySession<Key> replay = *epoch1;
  size_t matched = 0;
  auto check_epoch = [&] {
    auto it = by_n.find(replay.total_elements());
    if (it == by_n.end()) return;
    for (const SampledBatch* batch : it->second) {
      auto answers = replay.Query(MixedBatch(batch->index, base_n));
      if (!answers.ok()) continue;
      auto expected = EncodeQueryResultsPayload(*answers);
      if (expected.ok() && *expected == batch->payload) ++matched;
    }
  };
  check_epoch();
  for (uint64_t i = 0; i < segments; ++i) {
    auto delta = Engine<Key>(opaq, Source<Key>::FromVector(SegmentKeys(
                                       config.seed, ingest.acked[i],
                                       segment_n)))
                     .Build();
    if (!delta.ok()) return delta.status();
    OPAQ_RETURN_IF_ERROR(replay.Absorb(delta->sample_list()));
    check_epoch();
  }
  if (matched != sampled) {
    report->Fail("serve-live: " + std::to_string(sampled - matched) +
                 " of " + std::to_string(sampled) +
                 " sampled TCP batches differ from a local session of the "
                 "same epoch");
  }
  // The served epoch must be the replay's, and both a full rebuild's.
  auto rebuilt = builder();
  if (!rebuilt.ok()) return rebuilt.status();
  if (info->total_elements != replay.total_elements() ||
      info->max_rank_error != replay.max_rank_error() ||
      info->num_samples != replay.sample_list().samples().size() ||
      SampleListBytes(replay.sample_list()) !=
          SampleListBytes(rebuilt->sample_list())) {
    report->Fail("serve-live: the served session is not the rebuilt one");
  }

  // ----------------------------------------------------------- metrics ----
  std::vector<double> latency_us, traced_us, untraced_us;
  uint64_t batches = 0;
  for (const ClientLog& log : clients) {
    batches += log.batches;
    for (size_t i = 0; i < log.recorded; ++i) {
      latency_us.push_back(log.latency_us[i]);
      (log.traced[i] ? traced_us : untraced_us).push_back(log.latency_us[i]);
    }
    report->CountOps(log.attempted, log.failed);
  }
  report->CountOps(ingest.attempted, ingest.failed);
  // A failed incremental refresh falls back to a full rebuild inside
  // Refresh; it still counts as a failed attempt.
  report->CountOps(refresh_log.failures, refresh_log.failures);
  if (batches == 0 || ingest.refresh_ms.empty()) {
    return Status::Internal("serve-live: no batch or refresh completed");
  }
  const double n_final = static_cast<double>(info->total_elements);
  report->SetEndToEnd("setup_s", Median(setup_s));
  report->SetEndToEnd("build_ms", Median(ingest.refresh_ms));
  report->SetEndToEnd("op_ms", Median(latency_us) / 1e3);
  report->SetEndToEnd("ops_per_s", static_cast<double>(batches) * 8 / phase_s);
  report->SetEndToEnd("rank_error_ppm",
                      static_cast<double>(info->max_rank_error) / n_final *
                          1e6);
  report->SetEndToEnd("peak_rss_mb", peak_mb);
  report->Note(Format(
      "serve-live: base=%llu appends=%llu x %llu batches=%llu "
      "query_qps=%.0f req/s query_us_p50=%.1f us query_us_p99=%.1f us "
      "append_ms_p50=%.3f ms refresh_ms_p50=%.3f ms refresh_ms_p95=%.3f ms",
      static_cast<unsigned long long>(base_n),
      static_cast<unsigned long long>(segments),
      static_cast<unsigned long long>(segment_n),
      static_cast<unsigned long long>(batches),
      static_cast<double>(batches) * 8 / phase_s, Median(latency_us),
      Percentile(latency_us, 99), Median(ingest.append_ms),
      Median(ingest.refresh_ms), Percentile(ingest.refresh_ms, 95)));
  report->Note("  query_us " + Summary(latency_us, "us"));
  report->Note("  append_ms " + Summary(ingest.append_ms, "ms"));
  report->Note("  refresh_ms " + Summary(ingest.refresh_ms, "ms"));
  report->Note("  queryable_ms (due time to swap) " +
               Summary(ingest.queryable_ms, "ms"));

  if (config.trace) {
    auto traced_only = [](const std::vector<double>& values,
                          const std::vector<bool>& traced) {
      std::vector<double> out;
      for (size_t i = 0; i < values.size(); ++i) {
        if (traced[i]) out.push_back(values[i]);
      }
      return out;
    };
    const uint64_t traced_cycles = static_cast<uint64_t>(
        std::count(ingest.traced.begin(), ingest.traced.end(), true));
    const double cycles = std::max<double>(1, traced_cycles);
    const double traced_batches = std::max<double>(1, traced_us.size());
    ReportStages(stages, cycles, report);
    report->SetLayer("net.wire_send_ms",
                     stages.Ms(TraceStage::kWireSend) / traced_batches);
    report->SetLayer("net.wire_recv_ms",
                     stages.Ms(TraceStage::kWireRecv) / traced_batches);
    report->SetLayer("io.read_wait_ms", refresh_log.io_stall_s * 1e3 / cycles);
    report->SetLayer("io.runs", static_cast<double>(refresh_log.runs) / cycles);
    report->SetLayer("io.pack_ratio", 1.0);
    report->SetLayer("ingest.append_ms",
                     Median(traced_only(ingest.append_ms, ingest.traced)));
    report->SetLayer("ingest.segments", static_cast<double>(segments));
    report->SetLayer("ingest.write_amp",
                     static_cast<double>(DirectoryBytes(dir)) /
                         (n_final * sizeof(Key)));
    report->SetLayer("ingest.schedule_lag_ms", Percentile(ingest.lag_ms, 95));
    report->SetLayer("ingest.tail_sketch_ms",
                     Median(traced_only(refresh_log.tail_sketch_ms,
                                        refresh_log.traced)));
    report->SetLayer("ingest.absorb_us",
                     Median(traced_only(refresh_log.absorb_us,
                                        refresh_log.traced)));
    report->SetLayer("ingest.refresh_ms",
                     Median(traced_only(ingest.refresh_ms, ingest.traced)));
    const double all_batches = static_cast<double>(batches);
    report->SetLayer("net.bytes_sent", static_cast<double>(sent) / all_batches);
    report->SetLayer("net.bytes_received",
                     static_cast<double>(received) / all_batches);
    report->SetLayer("net.requests_served",
                     static_cast<double>(requests) / all_batches);
    report->SetLayer("util.crc_bytes",
                     static_cast<double>(sent + received) / all_batches);
    for (const MetricSample& metric : MetricsRegistry::Global().Snapshot()
                                          .metrics) {
      if (metric.name == "query.batch_latency_us") {
        report->SetLayer("net.server_batch_us_p50",
                         static_cast<double>(
                             metric.histogram.QuantilePoint(0.5)));
      }
    }
    report->SetLayer("telemetry.overhead_frac",
                     OverheadFrac(traced_us, untraced_us));
    ProbeSession(replay, report);
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace opaq
