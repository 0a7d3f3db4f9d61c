// Tests for the include/opaq/ public facade: the unified Source<K> handle,
// the Engine<K> front door, the batched QuerySession API, and the app
// builders retrofitted onto it — plus the QuantileEstimate::point()
// regression (doc says midpoint; behavior must agree).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "core/sketch_io.h"
#include "data/dataset.h"
#include "io/block_device.h"
#include "io/striped_data_file.h"
#include "io/tempdir.h"
#include "metrics/ground_truth.h"
#include "metrics/rer.h"
#include "opaq/apps.h"
#include "opaq/engine.h"
#include "opaq/opaq.h"
#include "opaq/query.h"
#include "opaq/source.h"

namespace opaq {
namespace {

using Key = uint64_t;
using Request = QueryRequest<Key>;

std::vector<Key> TestData(uint64_t n, uint64_t seed = 7,
                          Distribution dist = Distribution::kZipf) {
  DatasetSpec spec;
  spec.n = n;
  spec.seed = seed;
  spec.distribution = dist;
  return GenerateDataset<Key>(spec);
}

OpaqConfig SmallConfig() {
  OpaqConfig config;
  config.run_size = 2000;
  config.samples_per_run = 200;
  return config;
}

std::vector<uint8_t> Serialize(const SampleList<Key>& list) {
  MemoryBlockDevice out;
  OPAQ_CHECK_OK(SaveSampleList(list, &out));
  auto size = out.Size();
  OPAQ_CHECK_OK(size.status());
  std::vector<uint8_t> bytes(*size);
  OPAQ_CHECK_OK(out.ReadAt(0, bytes.data(), bytes.size()));
  return bytes;
}

// ---------------------------------------------------------------- Source ----

TEST(SourceTest, AllFactoriesExposeTheSameLogicalRuns) {
  const std::vector<Key> data = TestData(9137);  // ragged run tail

  // File-backed.
  MemoryBlockDevice device;
  OPAQ_CHECK_OK(WriteDataset(data, &device));
  auto file = TypedDataFile<Key>::Open(&device);
  ASSERT_TRUE(file.ok());
  Source<Key> from_file = Source<Key>::FromFile(&*file);

  // Striped across 3 devices with a chunk that does not divide the run.
  std::vector<std::unique_ptr<MemoryBlockDevice>> stripe_devices;
  std::vector<BlockDevice*> raw;
  for (int s = 0; s < 3; ++s) {
    stripe_devices.push_back(std::make_unique<MemoryBlockDevice>());
    raw.push_back(stripe_devices.back().get());
  }
  auto striped = WriteStriped(data, raw, 700);
  ASSERT_TRUE(striped.ok());
  Source<Key> from_striped = Source<Key>::FromFile(&*striped);
  EXPECT_EQ(from_striped.stripes(), 3u);

  // In-memory and provider-borrowing.
  Source<Key> from_vector = Source<Key>::FromVector(data);
  MemoryRunProvider<Key> provider(data);
  Source<Key> from_provider = Source<Key>::FromProvider(&provider);

  const Source<Key>* sources[] = {&from_file, &from_striped, &from_vector,
                                  &from_provider};
  ReadOptions options;
  options.run_size = 512;
  for (const Source<Key>* source : sources) {
    EXPECT_EQ(source->size(), data.size());
    std::vector<Key> replay;
    std::vector<Key> buffer;
    auto runs = source->OpenRuns(options);
    while (true) {
      auto more = runs->NextRun(&buffer);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      EXPECT_LE(buffer.size(), options.run_size);
      replay.insert(replay.end(), buffer.begin(), buffer.end());
    }
    EXPECT_EQ(replay, data);
  }
}

TEST(SourceTest, FromSpecMatchesGenerateDataset) {
  DatasetSpec spec;
  spec.n = 4096;
  spec.distribution = Distribution::kNormal;
  spec.seed = 11;
  Source<Key> source = Source<Key>::FromSpec(spec);
  EXPECT_EQ(source.size(), spec.n);
  ReadOptions options;
  std::vector<Key> buffer;
  auto runs = source.OpenRuns(options);
  ASSERT_TRUE(*runs->NextRun(&buffer));
  EXPECT_EQ(buffer, GenerateDataset<Key>(spec));
}

TEST(SourceTest, OpenOwnsRealFiles) {
  auto dir = TempDir::Make("opaq-facade-test");
  ASSERT_TRUE(dir.ok());
  const std::vector<Key> data = TestData(5000);
  {
    auto device = FileBlockDevice::Make(dir->FilePath("d.opaq"),
                                        FileBlockDevice::Mode::kCreate);
    ASSERT_TRUE(device.ok());
    OPAQ_CHECK_OK(WriteDataset(data, device->get()));
    OPAQ_CHECK_OK((*device)->Sync());
  }  // devices closed; Source::Open must own its whole chain
  auto source = Source<Key>::Open(dir->FilePath("d.opaq"));
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->size(), data.size());

  auto session = Engine<Key>(SmallConfig(), *source).Build();
  ASSERT_TRUE(session.ok());
  GroundTruth<Key> truth(data);
  EXPECT_TRUE(BracketHolds(truth, session->Quantile(0.5)));

  auto missing = Source<Key>::Open(dir->FilePath("nope.opaq"));
  EXPECT_FALSE(missing.ok());
}

TEST(SourceTest, OpenOfADirectoryOpensTheLiveDataset) {
  // `Source::Open` is what the CLI's --data reaches; a live dataset is a
  // directory, and must sketch exactly as `OpenLive` does.
  auto dir = TempDir::Make("opaq-facade-live");
  ASSERT_TRUE(dir.ok());
  const std::string live_dir = dir->FilePath("live");
  {
    auto live = LiveDataset<Key>::Create(live_dir);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ASSERT_TRUE(live->Append(TestData(3000)).ok());
    ASSERT_TRUE(live->Append(TestData(1700)).ok());
  }
  auto opened = Source<Key>::Open(live_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto live = Source<Key>::OpenLive(live_dir);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(opened->size(), 4700u);
  auto from_open = Engine<Key>(SmallConfig(), *opened).Build();
  auto from_live = Engine<Key>(SmallConfig(), *live).Build();
  ASSERT_TRUE(from_open.ok()) << from_open.status().ToString();
  ASSERT_TRUE(from_live.ok()) << from_live.status().ToString();
  EXPECT_EQ(Serialize(from_open->sample_list()),
            Serialize(from_live->sample_list()));
}

TEST(SourceTest, OpenOfStripePathsOwnsRealFiles) {
  auto dir = TempDir::Make("opaq-facade-striped");
  ASSERT_TRUE(dir.ok());
  const std::vector<Key> data = TestData(6000);
  std::vector<std::string> paths;
  {
    std::vector<std::unique_ptr<FileBlockDevice>> devices;
    std::vector<BlockDevice*> raw;
    for (int s = 0; s < 2; ++s) {
      paths.push_back(dir->FilePath("d.opaq.s" + std::to_string(s)));
      auto device =
          FileBlockDevice::Make(paths.back(), FileBlockDevice::Mode::kCreate);
      ASSERT_TRUE(device.ok());
      devices.push_back(std::move(device).value());
      raw.push_back(devices.back().get());
    }
    ASSERT_TRUE(WriteStriped(data, raw, 512).ok());
    for (auto& device : devices) OPAQ_CHECK_OK(device->Sync());
  }
  auto source = Source<Key>::Open(paths);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->size(), data.size());
  EXPECT_EQ(source->stripes(), 2u);

  auto session = Engine<Key>(SmallConfig(), *source).Build();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->total_elements(), data.size());
}

// ---------------------------------------------------------------- Engine ----

TEST(EngineTest, BuildMatchesClassicSketchBitForBit) {
  const std::vector<Key> data = TestData(20000);
  OpaqConfig config = SmallConfig();

  auto session = Engine<Key>(config, Source<Key>::FromVector(data)).Build();
  ASSERT_TRUE(session.ok());

  OpaqEstimator<Key> classic = EstimateQuantilesInMemory(data, config);
  EXPECT_EQ(Serialize(session->sample_list()),
            Serialize(classic.sample_list()));
}

TEST(EngineTest, MultiShardBuildEqualsMergedShardLists) {
  OpaqConfig config = SmallConfig();
  std::vector<Key> shard_a = TestData(8000, 1);
  std::vector<Key> shard_b = TestData(6500, 2);  // ragged shard tail
  std::vector<Key> shard_c = TestData(4000, 3, Distribution::kUniform);

  auto session = Engine<Key>(config, std::vector<Source<Key>>{
                                         Source<Key>::FromVector(shard_a),
                                         Source<Key>::FromVector(shard_b),
                                         Source<Key>::FromVector(shard_c)})
                     .Build();
  ASSERT_TRUE(session.ok());

  auto merged = SampleList<Key>::Merge(
      EstimateQuantilesInMemory(shard_a, config).sample_list(),
      EstimateQuantilesInMemory(shard_b, config).sample_list());
  ASSERT_TRUE(merged.ok());
  auto merged2 = SampleList<Key>::Merge(
      *merged, EstimateQuantilesInMemory(shard_c, config).sample_list());
  ASSERT_TRUE(merged2.ok());
  EXPECT_EQ(Serialize(session->sample_list()), Serialize(*merged2));

  // Aligned shards (multiples of run_size) additionally equal the one-shot
  // sequential pass over the concatenation.
  std::vector<Key> all = TestData(4000, 8);
  std::vector<Key> left(all.begin(), all.begin() + 2000);
  std::vector<Key> right(all.begin() + 2000, all.end());
  auto sharded = Engine<Key>(config, std::vector<Source<Key>>{
                                         Source<Key>::FromVector(left),
                                         Source<Key>::FromVector(right)})
                     .Build();
  ASSERT_TRUE(sharded.ok());
  auto sequential = Engine<Key>(config, Source<Key>::FromVector(all)).Build();
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ(Serialize(sharded->sample_list()),
            Serialize(sequential->sample_list()));
}

TEST(EngineTest, StatsAreFilled) {
  OpaqConfig config = SmallConfig();
  Engine<Key> engine(config, std::vector<Source<Key>>{
                                 Source<Key>::FromVector(TestData(10000, 4)),
                                 Source<Key>::FromVector(TestData(9000, 5))});
  auto session = engine.Build();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(engine.stats().shards, 2u);
  EXPECT_EQ(engine.stats().elements, 19000u);
  EXPECT_EQ(engine.stats().runs, 5u + 5u);  // ceil(10000/2000) + ceil(9000/2000)
  EXPECT_GT(engine.stats().seconds, 0);
}

TEST(EngineTest, ErrorsAreStatusesNotAborts) {
  // Bad config: samples_per_run does not divide run_size.
  OpaqConfig bad;
  bad.run_size = 1000;
  bad.samples_per_run = 300;
  auto invalid =
      Engine<Key>(bad, Source<Key>::FromVector(TestData(100))).Build();
  EXPECT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);

  // Too little data for even one sample: n < subrun size.
  auto tiny = Engine<Key>(SmallConfig(),
                          Source<Key>::FromVector(std::vector<Key>{1, 2, 3}))
                  .Build();
  EXPECT_FALSE(tiny.ok());
  EXPECT_EQ(tiny.status().code(), StatusCode::kFailedPrecondition);

  // No sources at all.
  auto empty =
      Engine<Key>(SmallConfig(), std::vector<Source<Key>>{}).Build();
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------- QuerySession ----

TEST(QuerySessionTest, BatchedQueryAnswersEveryKind) {
  const std::vector<Key> data = TestData(30000);
  GroundTruth<Key> truth(data);
  auto session =
      Engine<Key>(SmallConfig(), Source<Key>::FromVector(data)).Build();
  ASSERT_TRUE(session.ok());

  auto results = session->Query({
      Request::Quantile(0.5, /*exact=*/true),
      Request::EquiQuantiles(10),
      Request::RankOf(data[17]),
      Request::QuantileByRank(12345),
      Request::Quantile(0.99, /*exact=*/true),
  });
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->results.size(), 5u);
  EXPECT_EQ(results->total_elements, data.size());
  EXPECT_EQ(results->max_rank_error, session->max_rank_error());

  // Quantile brackets hold and exact values are the true order statistics.
  const auto& median = results->results[0];
  ASSERT_EQ(median.estimates.size(), 1u);
  EXPECT_TRUE(BracketHolds(truth, median.estimates[0]));
  ASSERT_EQ(median.exact.size(), 1u);
  EXPECT_EQ(median.exact[0], truth.Quantile(0.5));
  ASSERT_EQ(results->results[4].exact.size(), 1u);
  EXPECT_EQ(results->results[4].exact[0], truth.Quantile(0.99));

  // Equi-quantiles: 9 dectile brackets, all holding, no exact requested.
  const auto& dectiles = results->results[1];
  ASSERT_EQ(dectiles.estimates.size(), 9u);
  EXPECT_TRUE(dectiles.exact.empty());
  for (int d = 1; d <= 9; ++d) {
    EXPECT_TRUE(BracketHolds(truth, dectiles.estimates[d - 1])) << d;
  }

  // Rank bracket contains the true rank.
  const auto& rank = results->results[2];
  EXPECT_LE(rank.rank.min_rank_le, truth.RankLe(data[17]));
  EXPECT_GE(rank.rank.max_rank_le, truth.RankLe(data[17]));

  // Rank-targeted quantile bracket contains the rank-12345 element.
  const auto& by_rank = results->results[3];
  ASSERT_EQ(by_rank.estimates.size(), 1u);
  EXPECT_LE(by_rank.estimates[0].lower, truth.ValueAtRank(12345));
  EXPECT_GE(by_rank.estimates[0].upper, truth.ValueAtRank(12345));
}

TEST(QuerySessionTest, BatchedExactRequestsShareOneDataPass) {
  const std::vector<Key> data = TestData(40000);
  MemoryBlockDevice device;
  OPAQ_CHECK_OK(WriteDataset(data, &device));
  auto file = TypedDataFile<Key>::Open(&device);
  ASSERT_TRUE(file.ok());

  auto session =
      Engine<Key>(SmallConfig(), Source<Key>::FromFile(&*file)).Build();
  ASSERT_TRUE(session.ok());

  const uint64_t reads_before =
      device.stats().read_requests.load(std::memory_order_relaxed);
  auto results = session->Query({
      Request::Quantile(0.1, /*exact=*/true),
      Request::Quantile(0.5, /*exact=*/true),
      Request::Quantile(0.9, /*exact=*/true),
      Request::EquiQuantiles(4, /*exact=*/true),
  });
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const uint64_t reads_after =
      device.stats().read_requests.load(std::memory_order_relaxed);

  // Six exact values came back correct...
  GroundTruth<Key> truth(data);
  EXPECT_EQ(results->results[1].exact[0], truth.Quantile(0.5));
  ASSERT_EQ(results->results[3].exact.size(), 3u);
  EXPECT_EQ(results->results[3].exact[1], truth.Quantile(0.5));
  // ...for the read cost of ONE pass (one request per run), not six.
  const uint64_t runs =
      (data.size() + SmallConfig().run_size - 1) / SmallConfig().run_size;
  EXPECT_EQ(reads_after - reads_before, runs);
}

TEST(QuerySessionTest, QueryValidatesRequests) {
  auto session = Engine<Key>(SmallConfig(),
                             Source<Key>::FromVector(TestData(10000)))
                     .Build();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->Query({Request::Quantile(0.0)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Query({Request::Quantile(1.5)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Query({Request::EquiQuantiles(1)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Query({Request::QuantileByRank(0)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Query({Request::QuantileByRank(10001)}).status().code(),
            StatusCode::kInvalidArgument);
  // exact recovery is a quantile-flavored ask; on a rank request it must
  // be rejected, not silently dropped.
  Request exact_rank = Request::RankOf(Key{42});
  exact_rank.exact = true;
  EXPECT_EQ(session->Query({exact_rank}).status().code(),
            StatusCode::kInvalidArgument);
  // An empty batch is fine.
  auto empty = session->Query({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->results.empty());

  // A session over an empty sample list (e.g. a loaded sketch of a dataset
  // smaller than one sub-run) answers with a Status, not a CHECK-abort.
  QuerySession<Key> sampleless{SampleList<Key>()};
  EXPECT_EQ(sampleless.Query({Request::Quantile(0.5)}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QuerySessionTest, ExactBudgetKnobUnlocksDuplicateHeavyData) {
  // Ten distinct values over 10k elements: every bracket holds ~n/10
  // duplicates, far beyond the default 4*q*max_rank_error budget. The
  // default must fail with ResourceExhausted; raising the session budget
  // must recover the exact value.
  std::vector<Key> data(10000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i % 10;
  OpaqConfig config = SmallConfig();
  auto session = Engine<Key>(config, Source<Key>::FromVector(data)).Build();
  ASSERT_TRUE(session.ok());
  auto starved = session->ExactQuantile(0.5);
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
  session->set_exact_memory_budget(data.size());
  auto fed = session->ExactQuantile(0.5);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  std::vector<Key> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(*fed, sorted[data.size() / 2 - 1]);
}

TEST(QuerySessionTest, ExactBudgetBoundsTheTotalAcrossShards) {
  // Two duplicate-heavy shards scanned concurrently: a budget that either
  // shard's kept set fits alone, but not both together, must fail.
  std::vector<Key> data(10000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i % 10;
  const std::vector<Key> a(data.begin(), data.begin() + 4000);
  const std::vector<Key> b(data.begin() + 4000, data.end());
  auto session = Engine<Key>(SmallConfig(),
                             std::vector<Source<Key>>{
                                 Source<Key>::FromVector(a),
                                 Source<Key>::FromVector(b)})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto estimate = session->Query({QueryRequest<Key>::Quantile(0.5)});
  ASSERT_TRUE(estimate.ok());
  const QuantileEstimate<Key>& bracket = estimate->results[0].estimates[0];
  auto kept_by = [&](const std::vector<Key>& shard) {
    return static_cast<uint64_t>(
        std::count_if(shard.begin(), shard.end(), [&](Key v) {
          return !(v < bracket.lower) && !(bracket.upper < v);
        }));
  };
  session->set_exact_memory_budget(std::max(kept_by(a), kept_by(b)));
  auto starved = session->ExactQuantile(0.5);
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
  session->set_exact_memory_budget(kept_by(a) + kept_by(b));
  auto fed = session->ExactQuantile(0.5);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  std::vector<Key> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(*fed, sorted[data.size() / 2 - 1]);
}

TEST(QuerySessionTest, MultiShardExactMatchesSequentialSecondPass) {
  // The concurrent per-shard exact pass must answer exactly like one
  // sequential scan over the concatenation (below-counts add, kept sets
  // concatenate, selection is order-insensitive).
  OpaqConfig config = SmallConfig();
  std::vector<Key> shard_a = TestData(9000, 11);
  std::vector<Key> shard_b = TestData(7000, 12, Distribution::kUniform);
  std::vector<Key> shard_c = TestData(5000, 13);
  std::vector<Key> all = shard_a;
  all.insert(all.end(), shard_b.begin(), shard_b.end());
  all.insert(all.end(), shard_c.begin(), shard_c.end());

  auto session = Engine<Key>(config, std::vector<Source<Key>>{
                                         Source<Key>::FromVector(shard_a),
                                         Source<Key>::FromVector(shard_b),
                                         Source<Key>::FromVector(shard_c)})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto batch = session->Query({
      Request::Quantile(0.25, /*exact=*/true),
      Request::Quantile(0.5, /*exact=*/true),
      Request::Quantile(0.9, /*exact=*/true),
  });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  std::vector<Key> sorted = all;
  std::sort(sorted.begin(), sorted.end());
  const uint64_t n = sorted.size();
  const double phis[] = {0.25, 0.5, 0.9};
  for (size_t i = 0; i < 3; ++i) {
    const uint64_t psi = static_cast<uint64_t>(
        std::ceil(phis[i] * static_cast<double>(n)));
    EXPECT_EQ(batch->results[i].exact[0], sorted[psi - 1]) << phis[i];
  }
}

TEST(QuerySessionTest, ExactWithoutSourcesFailsCleanly) {
  // A session rebuilt from a bare sample list (the persisted-sketch path)
  // answers estimates but refuses exact queries.
  auto built = Engine<Key>(SmallConfig(),
                           Source<Key>::FromVector(TestData(10000)))
                   .Build();
  ASSERT_TRUE(built.ok());
  QuerySession<Key> detached(built->sample_list());
  EXPECT_TRUE(detached.Query({Request::Quantile(0.5)}).ok());
  auto exact = detached.Query({Request::Quantile(0.5, /*exact=*/true)});
  EXPECT_EQ(exact.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------------ Apps ----

TEST(FacadeAppsTest, BuildersMatchClassicConstruction) {
  const std::vector<Key> data = TestData(25000);
  OpaqConfig config = SmallConfig();
  auto session = Engine<Key>(config, Source<Key>::FromVector(data)).Build();
  ASSERT_TRUE(session.ok());
  OpaqEstimator<Key> classic = EstimateQuantilesInMemory(data, config);

  auto histogram = BuildEquiDepthHistogram(*session, 10);
  ASSERT_TRUE(histogram.ok());
  auto classic_histogram = EquiDepthHistogram<Key>::Build(classic, 10);
  ASSERT_EQ(histogram->boundaries().size(),
            classic_histogram.boundaries().size());
  for (size_t i = 0; i < histogram->boundaries().size(); ++i) {
    EXPECT_EQ(histogram->boundaries()[i].lower,
              classic_histogram.boundaries()[i].lower);
    EXPECT_EQ(histogram->boundaries()[i].upper,
              classic_histogram.boundaries()[i].upper);
  }
  EXPECT_EQ(histogram->max_rank_error(), classic_histogram.max_rank_error());

  auto partitioner = BuildRangePartitioner(*session, 8);
  ASSERT_TRUE(partitioner.ok());
  EXPECT_EQ(partitioner->splitters(),
            RangePartitioner<Key>::Build(classic, 8).splitters());

  auto selectivity =
      EstimateRangeSelectivity(*session, Key{10}, Key{100000});
  ASSERT_TRUE(selectivity.ok());
  SelectivityEstimate classic_selectivity =
      EstimateRangeSelectivity(classic, Key{10}, Key{100000});
  EXPECT_EQ(selectivity->min_count, classic_selectivity.min_count);
  EXPECT_EQ(selectivity->max_count, classic_selectivity.max_count);

  EXPECT_EQ(BuildEquiDepthHistogram(*session, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildRangePartitioner(*session, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      EstimateRangeSelectivity(*session, Key{10}, Key{5}).status().code(),
      StatusCode::kInvalidArgument);
}

// -------------------------------------------- point() doc/behavior fix ----

TEST(QuantileEstimateTest, PointIsTheBracketMidpoint) {
  // Regression for the doc/behavior mismatch: point() promised a
  // "midpoint-style" estimate but returned `lower`. It must now be the
  // midpoint of the certified bracket.
  std::vector<Key> data(50000);
  std::iota(data.begin(), data.end(), 0);
  auto session =
      Engine<Key>(SmallConfig(), Source<Key>::FromVector(data)).Build();
  ASSERT_TRUE(session.ok());
  bool saw_wide_bracket = false;
  for (int d = 1; d <= 9; ++d) {
    QuantileEstimate<Key> e = session->Quantile(d / 10.0);
    EXPECT_EQ(e.point(), e.lower + (e.upper - e.lower) / 2) << d;
    EXPECT_GE(e.point(), e.lower);
    EXPECT_LE(e.point(), e.upper);
    if (e.upper > e.lower + 1) saw_wide_bracket = true;
  }
  // The test only bites if some bracket is wide enough to distinguish
  // midpoint from lower.
  EXPECT_TRUE(saw_wide_bracket);

  // A clamped bound falls back to the certified side.
  QuantileEstimate<Key> clamped;
  clamped.lower = 10;
  clamped.upper = 20;
  clamped.lower_index = 1;
  clamped.upper_index = 2;
  clamped.lower_clamped = true;
  EXPECT_EQ(clamped.point(), 20u);
  clamped.lower_clamped = false;
  clamped.upper_clamped = true;
  EXPECT_EQ(clamped.point(), 10u);
  clamped.upper_clamped = false;
  EXPECT_EQ(clamped.point(), 15u);
  // Both bounds clamped: neither side certifies, so point() falls back to
  // the midpoint rather than preferring one uncertified bound.
  clamped.lower_clamped = true;
  clamped.upper_clamped = true;
  EXPECT_EQ(clamped.point(), 15u);

  // Signed keys whose bracket spans more than half the domain: the naive
  // upper - lower overflows int64_t (UB); BracketMidpoint must not.
  QuantileEstimate<int64_t> wide;
  wide.lower = -6000000000000000000LL;
  wide.upper = 6000000000000000000LL;
  wide.lower_index = 1;
  wide.upper_index = 2;
  EXPECT_EQ(wide.point(), 0);
  wide.lower = -3;
  wide.upper = 8;
  EXPECT_EQ(wide.point(), 2);
}

}  // namespace
}  // namespace opaq
