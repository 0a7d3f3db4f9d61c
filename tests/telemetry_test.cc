// Unit tests for src/telemetry: the metrics registry (concurrent updates,
// stable pointers, sorted snapshots), the sketch-backed latency histogram
// (its snapshot must be byte-identical to sketching the same stream with
// SampleListBuilder directly), the flight-recorder ring (wraparound, seqlock
// consistency under concurrent writers), and the two snapshot renderers.
//
// The concurrency cases double as the TSan wall: CI runs this suite under
// -fsanitize=thread, so any data race in the lock-free paths fails the job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/sample_list.h"
#include "telemetry/metrics.h"
#include "telemetry/stats_format.h"
#include "telemetry/trace.h"

namespace opaq {
namespace {

// ------------------------------------------------------ Counter / Gauge ----

TEST(CounterTest, AddAndSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(GaugeTest, GoesBothWays) {
  Gauge g;
  g.Set(5);
  g.Add(-8);
  EXPECT_EQ(g.value(), -3);
}

// ----------------------------------------------------------- Registry ------

TEST(MetricsRegistryTest, ReturnsStablePointersAndDedupesByName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  Gauge* g1 = registry.GetGauge("x.gauge");
  Gauge* g2 = registry.GetGauge("x.gauge");
  EXPECT_EQ(g1, g2);
  LatencyHistogram* h1 = registry.GetHistogram("x.hist");
  LatencyHistogram* h2 = registry.GetHistogram("x.hist");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Add(1);
  registry.GetCounter("alpha")->Add(2);
  registry.GetGauge("mid")->Set(-4);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 3u);
  EXPECT_EQ(snapshot.metrics[0].name, "alpha");
  EXPECT_EQ(snapshot.metrics[1].name, "mid");
  EXPECT_EQ(snapshot.metrics[2].name, "zeta");
  EXPECT_EQ(snapshot.metrics[0].value, 2u);
  EXPECT_EQ(snapshot.metrics[1].gauge_value(), -4);
  EXPECT_EQ(snapshot.metrics[2].value, 1u);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUpdates) {
  // Many threads race registration (same names), updates, and snapshots.
  // Correctness assertion: no increment is lost and no duplicate metric
  // appears. Under TSan this also proves the locking discipline.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIters; ++i) {
        registry.GetCounter("shared.count")->Add();
        registry.GetGauge("shared.gauge")->Set(t);
        registry.GetHistogram("shared.hist")
            ->Record(static_cast<uint64_t>(i));
        if (i % 64 == 0) {
          MetricsSnapshot snap = registry.Snapshot();
          ASSERT_LE(snap.metrics.size(), 3u);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 3u);
  EXPECT_EQ(snapshot.metrics[0].name, "shared.count");
  EXPECT_EQ(snapshot.metrics[0].value,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snapshot.metrics[1].name, "shared.gauge");
  EXPECT_EQ(snapshot.metrics[2].name, "shared.hist");
  EXPECT_EQ(snapshot.metrics[2].histogram.count,
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistryTest, EnableFlagRoundTrips) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.enabled());
  registry.set_enabled(false);
  EXPECT_FALSE(registry.enabled());
  registry.set_enabled(true);
  EXPECT_TRUE(registry.enabled());
}

// ---------------------------------------------------- LatencyHistogram -----

// The histogram must produce EXACTLY the sketch that SampleListBuilder
// produces over the same stream split into the same runs — same samples,
// same accounting. That is the tentpole claim: the system measures itself
// with the paper's own algorithm, not an approximation of it.
TEST(LatencyHistogramTest, SnapshotMatchesDirectSketch) {
  LatencyHistogram::Config config;
  config.run_size = 64;
  config.samples_per_run = 8;  // subrun_size = 8
  LatencyHistogram hist(config);

  std::mt19937_64 rng(42);
  std::vector<uint64_t> values(64 * 5 + 21);  // five full runs + partial
  for (uint64_t& v : values) v = rng() % 100000;
  for (uint64_t v : values) hist.Record(v);

  // Direct construction: split into the same runs, sort each, regular-
  // sample at the last element of each full sub-run.
  const uint64_t subrun = config.run_size / config.samples_per_run;
  SampleListBuilder<uint64_t> builder(subrun);
  for (size_t begin = 0; begin < values.size(); begin += config.run_size) {
    const size_t end = std::min(begin + config.run_size, values.size());
    std::vector<uint64_t> run(values.begin() + begin, values.begin() + end);
    std::sort(run.begin(), run.end());
    std::vector<uint64_t> samples;
    for (uint64_t j = subrun - 1; j < run.size(); j += subrun) {
      samples.push_back(run[j]);
    }
    builder.AddRunSamples(std::move(samples), run.size());
  }
  SampleList<uint64_t> direct = builder.Finalize();

  SampleList<uint64_t> sketched = hist.SnapshotList();
  EXPECT_EQ(sketched.samples(), direct.samples());
  EXPECT_EQ(sketched.accounting().subrun_size,
            direct.accounting().subrun_size);
  EXPECT_EQ(sketched.accounting().num_runs, direct.accounting().num_runs);
  EXPECT_EQ(sketched.accounting().num_samples,
            direct.accounting().num_samples);
  EXPECT_EQ(sketched.accounting().num_uncovered,
            direct.accounting().num_uncovered);
  EXPECT_EQ(sketched.total_elements(), values.size());

  // The flattened form carries the same samples plus the exact sum.
  HistogramSnapshot snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.samples, direct.samples());
  EXPECT_EQ(snapshot.count, values.size());
  EXPECT_EQ(snapshot.sum,
            std::accumulate(values.begin(), values.end(), uint64_t{0}));
  EXPECT_EQ(snapshot.subrun_size, subrun);
}

TEST(LatencyHistogramTest, SnapshotDoesNotConsumeLiveState) {
  LatencyHistogram::Config config;
  config.run_size = 16;
  config.samples_per_run = 4;
  LatencyHistogram hist(config);
  for (uint64_t v = 0; v < 23; ++v) hist.Record(v);
  HistogramSnapshot first = hist.Snapshot();
  HistogramSnapshot second = hist.Snapshot();
  EXPECT_EQ(first.samples, second.samples);
  EXPECT_EQ(first.count, second.count);
  EXPECT_EQ(first.sum, second.sum);
  // Recording continues cleanly after snapshots.
  for (uint64_t v = 0; v < 9; ++v) hist.Record(v);
  EXPECT_EQ(hist.count(), 32u);
}

TEST(LatencyHistogramTest, QuantileBracketsKnownStream) {
  LatencyHistogram::Config config;
  config.run_size = 100;
  config.samples_per_run = 20;  // subrun = 5
  LatencyHistogram hist(config);
  for (uint64_t v = 1; v <= 10000; ++v) hist.Record(v);
  QuantileEstimate<uint64_t> median = hist.Quantile(0.5);
  // Certified bracket: the true median (5000) lies within [lower, upper]
  // unless clamped, and the point samples sit near it.
  EXPECT_FALSE(median.lower_clamped);
  EXPECT_FALSE(median.upper_clamped);
  EXPECT_LE(median.lower, 5000u);
  EXPECT_GE(median.upper, 5000u);
  EXPECT_NEAR(static_cast<double>(hist.Snapshot().QuantilePoint(0.5)), 5000.0,
              100.0);
}

TEST(LatencyHistogramTest, EmptyQuantileIsZeroFilled) {
  LatencyHistogram hist;
  QuantileEstimate<uint64_t> q = hist.Quantile(0.9);
  EXPECT_EQ(q.lower, 0u);
  EXPECT_EQ(q.upper, 0u);
  EXPECT_EQ(hist.Snapshot().QuantilePoint(0.9), 0u);
}

// ------------------------------------------------------ FlightRecorder -----

TEST(FlightRecorderTest, RingWrapsAndKeepsMostRecent) {
  FlightRecorder recorder(/*capacity=*/8);
  EXPECT_EQ(recorder.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    recorder.Record(TraceStage::kSample, /*start_ns=*/i * 100,
                    /*duration_ns=*/i);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 8u);
  // The ring retains exactly the last 8 spans, oldest first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].duration_ns, 12 + i);
    EXPECT_EQ(events[i].start_ns, (12 + i) * 100);
    EXPECT_EQ(events[i].stage, TraceStage::kSample);
  }
  EXPECT_EQ(recorder.StageCount(TraceStage::kSample), 20u);
  EXPECT_EQ(recorder.StageTotalNs(TraceStage::kSample),
            (0u + 19u) * 20u / 2u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(/*capacity=*/5);
  EXPECT_EQ(recorder.capacity(), 8u);
}

TEST(FlightRecorderTest, DisabledSpanRecordsNothing) {
  FlightRecorder recorder(8);
  recorder.set_enabled(false);
  { TraceSpan span(TraceStage::kMerge, &recorder); }
  EXPECT_EQ(recorder.recorded(), 0u);
  recorder.set_enabled(true);
  { TraceSpan span(TraceStage::kMerge, &recorder); }
  EXPECT_EQ(recorder.recorded(), 1u);
  EXPECT_EQ(recorder.StageCount(TraceStage::kMerge), 1u);
}

TEST(FlightRecorderTest, ConcurrentWritersAndReadersAreConsistent) {
  // Writers hammer the ring while readers snapshot it. The seqlock must
  // never yield a torn event: every event a reader sees must be one some
  // writer actually recorded (stage/duration pairing intact).
  FlightRecorder recorder(/*capacity=*/64);
  constexpr int kWriters = 4;
  constexpr int kSpansPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::thread reader([&recorder, &stop, &torn] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const TraceEvent& e : recorder.Events()) {
        // Writers encode duration = stage_index * 1000 + k; a torn read
        // would break that correspondence.
        const auto stage_index = static_cast<uint64_t>(e.stage);
        if (e.duration_ns / 1000 != stage_index) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      const auto stage = static_cast<TraceStage>(w % kNumTraceStages);
      const uint64_t stage_index = static_cast<uint64_t>(stage);
      for (int i = 0; i < kSpansPerWriter; ++i) {
        recorder.Record(stage, /*start_ns=*/i,
                        /*duration_ns=*/stage_index * 1000 +
                            static_cast<uint64_t>(i % 1000));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(recorder.recorded(),
            static_cast<uint64_t>(kWriters) * kSpansPerWriter);
  // Once the writers are done every slot holds a whole span, and a span can
  // only have been dropped by a writer that lapped a slot someone wrote.
  EXPECT_EQ(recorder.Events().size(), recorder.capacity());
  EXPECT_LE(recorder.dropped(), recorder.recorded() - recorder.capacity());
}

TEST(FlightRecorderTest, KeptAndDroppedSpansAccountForEveryRecord) {
  // Four writers on rings of one, 64 and 2^15 slots. A span is either
  // written into its slot or dropped because the slot was mid-write, so
  // every slot holds a span and at most recorded - capacity were dropped;
  // a ring that never laps keeps every span.
  constexpr int kWriters = 4;
  constexpr int kSpansPerWriter = 8192;
  constexpr uint64_t kRecorded = uint64_t{kWriters} * kSpansPerWriter;
  for (size_t capacity : {size_t{1}, size_t{64}, size_t{kRecorded}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    FlightRecorder recorder(capacity);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&recorder] {
        for (int i = 0; i < kSpansPerWriter; ++i) {
          recorder.Record(TraceStage::kRunRead, i, 1);
        }
      });
    }
    for (std::thread& t : writers) t.join();
    ASSERT_EQ(recorder.recorded(), kRecorded);
    EXPECT_EQ(recorder.StageCount(TraceStage::kRunRead), kRecorded);
    const uint64_t kept = recorder.Events().size();
    EXPECT_EQ(kept, capacity);
    EXPECT_LE(kept + recorder.dropped(), kRecorded);
    if (capacity == kRecorded) {
      EXPECT_EQ(kept + recorder.dropped(), kRecorded);
    }
  }
}

TEST(FlightRecorderTest, ChromeTraceJsonIsWellFormed) {
  FlightRecorder recorder(8);
  recorder.Record(TraceStage::kRunRead, 1000, 500);
  recorder.Record(TraceStage::kExactPass, 2000, 250);
  const std::string json = recorder.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"run_read\""), std::string::npos);
  EXPECT_NE(json.find("\"exact_pass\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceStageTest, EveryStageHasAName) {
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    const char* name = TraceStageName(static_cast<TraceStage>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown") << "stage " << i;
  }
}

// ------------------------------------------------------------ Renderers ----

MetricsSnapshot RenderFixture() {
  MetricsRegistry registry;
  registry.GetCounter("net.frames_served")->Add(12);
  registry.GetGauge("query.sessions")->Set(-2);
  LatencyHistogram::Config config;
  config.run_size = 8;
  config.samples_per_run = 4;
  LatencyHistogram* hist =
      registry.GetHistogram("query.batch_latency_us", config);
  for (uint64_t v = 1; v <= 24; ++v) hist->Record(v * 10);
  return registry.Snapshot();
}

TEST(StatsFormatTest, TextHasOneRowPerMetric) {
  const std::string text = FormatStatsText(RenderFixture());
  EXPECT_NE(text.find("net.frames_served"), std::string::npos);
  EXPECT_NE(text.find("12"), std::string::npos);
  EXPECT_NE(text.find("query.sessions"), std::string::npos);
  EXPECT_NE(text.find("-2"), std::string::npos);
  EXPECT_NE(text.find("query.batch_latency_us"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

TEST(StatsFormatTest, PrometheusExpositionParses) {
  const std::string prom = FormatStatsPrometheus(RenderFixture());
  // Names sanitized and prefixed; TYPE lines present; histogram rendered
  // as a summary with quantile labels plus _sum/_count.
  EXPECT_NE(prom.find("# TYPE opaq_net_frames_served counter"),
            std::string::npos);
  EXPECT_NE(prom.find("opaq_net_frames_served 12"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE opaq_query_sessions gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("opaq_query_sessions -2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE opaq_query_batch_latency_us summary"),
            std::string::npos);
  EXPECT_NE(prom.find("opaq_query_batch_latency_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("opaq_query_batch_latency_us_sum"), std::string::npos);
  EXPECT_NE(prom.find("opaq_query_batch_latency_us_count 24"),
            std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  size_t pos = 0;
  while (pos < prom.size()) {
    size_t end = prom.find('\n', pos);
    if (end == std::string::npos) end = prom.size();
    const std::string line = prom.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.rfind("opaq_", 0), 0u) << line;
  }
}

}  // namespace
}  // namespace opaq
