// Unit + property tests for src/core: k-way merge, sample lists, the
// estimator (Lemma 1-3 guarantees swept over configurations via TEST_P),
// incremental merging, the exact second pass (including a property test of
// its bracket scan against a naive reference), and config validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/exact.h"
#include "core/kway_merge.h"
#include "core/opaq.h"
#include "data/dataset.h"
#include "io/block_device.h"
#include "metrics/ground_truth.h"
#include "metrics/rer.h"

namespace opaq {
namespace {

// ------------------------------------------------------------- KWayMerge --

TEST(KWayMergeTest, MergesManySortedLists) {
  std::vector<std::vector<int>> lists{{1, 4, 7}, {2, 5, 8}, {3, 6, 9}, {}};
  auto merged = KWayMergeSorted(lists);
  EXPECT_EQ(merged, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(KWayMergeTest, SingleList) {
  std::vector<std::vector<int>> lists{{1, 2, 3}};
  EXPECT_EQ(KWayMergeSorted(lists), (std::vector<int>{1, 2, 3}));
}

TEST(KWayMergeTest, AllEmpty) {
  std::vector<std::vector<int>> lists{{}, {}};
  EXPECT_TRUE(KWayMergeSorted(lists).empty());
}

TEST(KWayMergeTest, DuplicateHeavyLists) {
  std::vector<std::vector<int>> lists{{1, 1, 1}, {1, 1}, {0, 1, 2}};
  EXPECT_EQ(KWayMergeSorted(lists),
            (std::vector<int>{0, 1, 1, 1, 1, 1, 1, 2}));
}

TEST(KWayMergeTest, MatchesStdSortOnRandomLists) {
  Xoshiro256 rng(3);
  std::vector<std::vector<uint64_t>> lists(17);
  std::vector<uint64_t> all;
  for (auto& list : lists) {
    size_t len = rng.NextBounded(50);
    for (size_t i = 0; i < len; ++i) list.push_back(rng.NextBounded(1000));
    std::sort(list.begin(), list.end());
    all.insert(all.end(), list.begin(), list.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(KWayMergeSorted(lists), all);
}

TEST(MergeSortedTest, TwoWayMerge) {
  EXPECT_EQ(MergeSorted<int>({1, 3, 5}, {2, 4}),
            (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(MergeSorted<int>({}, {1}), (std::vector<int>{1}));
  EXPECT_EQ(MergeSorted<int>({2, 2}, {2}), (std::vector<int>{2, 2, 2}));
}

// ------------------------------------------------------------ SampleList --

TEST(SampleListBuilderTest, AccountsRunsAndUncovered) {
  SampleListBuilder<uint64_t> builder(10);
  builder.AddRunSamples({5, 15, 25, 35}, 40);   // full run, 4 samples
  builder.AddRunSamples({7, 17}, 23);            // tail run: 2 samples, 3 uncovered
  EXPECT_EQ(builder.num_runs(), 2u);
  EXPECT_EQ(builder.total_elements(), 63u);
  SampleList<uint64_t> list = builder.Finalize();
  EXPECT_EQ(list.accounting().num_samples, 6u);
  EXPECT_EQ(list.accounting().num_uncovered, 3u);
  EXPECT_EQ(list.samples(), (std::vector<uint64_t>{5, 7, 15, 17, 25, 35}));
  EXPECT_TRUE(list.accounting().Valid());
}

TEST(SampleListBuilderTest, FinalizeResetsBuilder) {
  SampleListBuilder<uint64_t> builder(5);
  builder.AddRunSamples({1, 2}, 10);
  builder.Finalize();
  EXPECT_EQ(builder.num_runs(), 0u);
  builder.AddRunSamples({3, 4}, 10);
  SampleList<uint64_t> list = builder.Finalize();
  EXPECT_EQ(list.accounting().num_runs, 1u);
}

TEST(SampleListTest, At1UsesPaperIndexing) {
  SampleListBuilder<uint64_t> builder(1);
  builder.AddRunSamples({10, 20, 30}, 3);
  SampleList<uint64_t> list = builder.Finalize();
  EXPECT_EQ(list.At1(1), 10u);
  EXPECT_EQ(list.At1(3), 30u);
}

TEST(SampleListTest, CountingQueries) {
  SampleListBuilder<uint64_t> builder(1);
  builder.AddRunSamples({10, 20, 20, 30}, 4);
  SampleList<uint64_t> list = builder.Finalize();
  EXPECT_EQ(list.CountLess(20), 1u);
  EXPECT_EQ(list.CountLessEqual(20), 3u);
  EXPECT_EQ(list.CountLess(5), 0u);
  EXPECT_EQ(list.CountLessEqual(99), 4u);
}

TEST(SampleListTest, MergeCombinesAccounting) {
  SampleListBuilder<uint64_t> b1(10), b2(10);
  b1.AddRunSamples({5, 15}, 20);
  b2.AddRunSamples({10, 20}, 20);
  b2.AddRunSamples({1, 2}, 23);  // 3 uncovered
  auto merged = SampleList<uint64_t>::Merge(b1.Finalize(), b2.Finalize());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->accounting().num_runs, 3u);
  EXPECT_EQ(merged->accounting().num_samples, 6u);
  EXPECT_EQ(merged->accounting().num_uncovered, 3u);
  EXPECT_EQ(merged->accounting().total_elements, 63u);
  EXPECT_TRUE(std::is_sorted(merged->samples().begin(),
                             merged->samples().end()));
}

TEST(SampleListTest, MergeRejectsDifferentSubrunSizes) {
  SampleListBuilder<uint64_t> b1(10), b2(20);
  b1.AddRunSamples({5}, 10);
  b2.AddRunSamples({5}, 20);
  auto merged = SampleList<uint64_t>::Merge(b1.Finalize(), b2.Finalize());
  EXPECT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST(SampleListTest, MergeWithEmptyIsIdentity) {
  SampleListBuilder<uint64_t> b(10);
  b.AddRunSamples({5, 15}, 20);
  SampleList<uint64_t> list = b.Finalize();
  auto merged = SampleList<uint64_t>::Merge(list, SampleList<uint64_t>());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->samples(), list.samples());
}

// ---------------------------------------------------------------- Config --

TEST(OpaqConfigTest, ValidatesDivisibility) {
  OpaqConfig config;
  config.run_size = 100;
  config.samples_per_run = 10;
  EXPECT_TRUE(config.Validate().ok());
  config.samples_per_run = 7;  // does not divide 100
  EXPECT_FALSE(config.Validate().ok());
  config.samples_per_run = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.samples_per_run = 200;  // > run_size
  EXPECT_FALSE(config.Validate().ok());
  config.run_size = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(OpaqConfigTest, MemoryConstraintOfSection23) {
  OpaqConfig config;
  config.run_size = 100;
  config.samples_per_run = 10;
  // n=1000 => r=10 runs => r*s + m = 100 + 100 = 200 elements needed.
  EXPECT_TRUE(config.Validate(1000, 200).ok());
  EXPECT_FALSE(config.Validate(1000, 199).ok());
  // Budget 0 means "don't check".
  EXPECT_TRUE(config.Validate(1000, 0).ok());
}

TEST(OpaqConfigTest, ToStringMentionsParameters) {
  OpaqConfig config;
  config.run_size = 64;
  config.samples_per_run = 8;
  std::string s = config.ToString();
  EXPECT_NE(s.find("m=64"), std::string::npos);
  EXPECT_NE(s.find("s=8"), std::string::npos);
  EXPECT_NE(s.find("c=8"), std::string::npos);
}

// ----------------------------------------------- Estimator on known data --

TEST(EstimatorTest, SingleRunExactMachinery) {
  // 100 elements 0..99 in one run with c=10: samples are 9,19,...,99.
  OpaqConfig config;
  config.run_size = 100;
  config.samples_per_run = 10;
  std::vector<uint64_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);
  EXPECT_EQ(est.total_elements(), 100u);

  auto median = est.Quantile(0.5);  // psi = 50
  EXPECT_EQ(median.target_rank, 50u);
  EXPECT_EQ(median.lower, 49u);   // sample index floor(50/10)=5 => value 49
  EXPECT_EQ(median.upper, 49u);   // ceil(50/10)=5 => value 49
  EXPECT_FALSE(median.lower_clamped);
  EXPECT_FALSE(median.upper_clamped);
  EXPECT_EQ(median.max_rank_error, 10u);  // c + 0 slack
}

TEST(EstimatorTest, QuantileByRankEdges) {
  OpaqConfig config;
  config.run_size = 100;
  config.samples_per_run = 10;
  std::vector<uint64_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);

  auto first = est.QuantileByRank(1);
  EXPECT_TRUE(first.lower_clamped);  // no certified lower bound at rank 1
  EXPECT_EQ(first.upper, 9u);        // ceil(1/10) = 1 => first sample

  auto last = est.QuantileByRank(100);
  EXPECT_EQ(last.upper, 99u);
  EXPECT_EQ(last.lower, 99u);
  EXPECT_FALSE(last.upper_clamped);
}

TEST(EstimatorTest, EquiQuantilesCountAndOrder) {
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  std::vector<uint64_t> data(10000);
  std::iota(data.begin(), data.end(), 0);
  OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);
  auto dectiles = est.EquiQuantiles(10);
  ASSERT_EQ(dectiles.size(), 9u);
  for (size_t i = 1; i < dectiles.size(); ++i) {
    EXPECT_LE(dectiles[i - 1].lower, dectiles[i].lower);
    EXPECT_LE(dectiles[i - 1].upper, dectiles[i].upper);
  }
}

TEST(EstimatorTest, RankEstimateBracketsTrueRank) {
  OpaqConfig config;
  config.run_size = 500;
  config.samples_per_run = 50;
  DatasetSpec spec;
  spec.n = 5000;
  spec.distribution = Distribution::kUniform;
  auto data = GenerateDataset<uint64_t>(spec);
  OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);
  GroundTruth<uint64_t> truth(data);

  Xoshiro256 rng(9);
  for (int i = 0; i < 200; ++i) {
    const uint64_t probe = data[rng.NextBounded(data.size())];
    RankEstimate r = est.EstimateRank(probe);
    EXPECT_LE(r.min_rank_le, truth.RankLe(probe));
    EXPECT_GE(r.max_rank_le, truth.RankLe(probe));
    EXPECT_LE(r.min_rank_lt, truth.RankLt(probe));
    EXPECT_GE(r.max_rank_lt, truth.RankLt(probe));
  }
}

// -------------------------------- Property sweep: Lemmas 1-3 via TEST_P --

class OpaqGuaranteeTest
    : public ::testing::TestWithParam<
          std::tuple<Distribution, uint64_t, uint64_t, uint64_t>> {};

TEST_P(OpaqGuaranteeTest, BracketsAndErrorBoundsHoldForAllDectiles) {
  const Distribution distribution = std::get<0>(GetParam());
  const uint64_t n = std::get<1>(GetParam());
  const uint64_t m = std::get<2>(GetParam());
  const uint64_t s = std::get<3>(GetParam());

  DatasetSpec spec;
  spec.n = n;
  spec.distribution = distribution;
  spec.seed = n ^ (m << 8) ^ (s << 16);
  auto data = GenerateDataset<uint64_t>(spec);

  OpaqConfig config;
  config.run_size = m;
  config.samples_per_run = s;
  OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);
  GroundTruth<uint64_t> truth(data);

  ASSERT_EQ(est.total_elements(), n);
  for (int d = 1; d <= 9; ++d) {
    auto e = est.Quantile(d / 10.0);
    EXPECT_TRUE(BracketHolds(truth, e))
        << DistributionName(distribution) << " n=" << n << " m=" << m
        << " s=" << s << " dectile=" << d;
  }
  // Lemma 3 in element counts: at most 2*budget elements strictly inside
  // the bracket beyond the duplicates of the bounds themselves.
  auto mid = est.Quantile(0.5);
  if (!mid.lower_clamped && !mid.upper_clamped) {
    uint64_t inside = truth.CountInClosedRange(mid.lower, mid.upper);
    uint64_t dups = truth.CountEqual(mid.lower) + truth.CountEqual(mid.upper);
    EXPECT_LE(inside, 2 * mid.max_rank_error + dups);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OpaqGuaranteeTest,
    ::testing::Combine(
        ::testing::Values(Distribution::kUniform, Distribution::kZipf,
                          Distribution::kNormal, Distribution::kSequential,
                          Distribution::kReverseSequential,
                          Distribution::kConstant, Distribution::kSawtooth),
        ::testing::Values(uint64_t{10000}, uint64_t{100000}),
        ::testing::Values(uint64_t{1000}, uint64_t{5000}),
        ::testing::Values(uint64_t{10}, uint64_t{100}, uint64_t{500})),
    [](const auto& info) {
      return std::string(DistributionName(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

TEST(OpaqGuaranteeTest2, NonDivisibleTailRunStillBrackets) {
  // n not divisible by m: the tail run has uncovered elements; bounds stay
  // sound (with the widened budget).
  DatasetSpec spec;
  spec.n = 10037;  // prime-ish
  spec.distribution = Distribution::kUniform;
  auto data = GenerateDataset<uint64_t>(spec);
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);
  GroundTruth<uint64_t> truth(data);
  EXPECT_GT(est.sample_list().accounting().num_uncovered, 0u);
  for (int d = 1; d <= 9; ++d) {
    EXPECT_TRUE(BracketHolds(truth, est.Quantile(d / 10.0))) << d;
  }
}

TEST(OpaqGuaranteeTest2, SelectionAlgorithmDoesNotChangeSamples) {
  // The sample at a regular rank is a fixed order statistic, so the whole
  // estimate is identical across selection algorithms.
  DatasetSpec spec;
  spec.n = 50000;
  spec.distribution = Distribution::kZipf;
  auto data = GenerateDataset<uint64_t>(spec);
  OpaqConfig config;
  config.run_size = 5000;
  config.samples_per_run = 100;

  std::vector<std::vector<uint64_t>> sample_lists;
  for (SelectAlgorithm a :
       {SelectAlgorithm::kStdNthElement, SelectAlgorithm::kMedianOfMedians,
        SelectAlgorithm::kFloydRivest, SelectAlgorithm::kIntroSelect}) {
    config.select_algorithm = a;
    OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);
    sample_lists.push_back(est.sample_list().samples());
  }
  for (size_t i = 1; i < sample_lists.size(); ++i) {
    EXPECT_EQ(sample_lists[i], sample_lists[0]);
  }
}

// ---------------------------------------------------- Incremental merging --

TEST(IncrementalTest, MergedSketchEqualsOneShotSketch) {
  // Paper §4: keep the sorted samples of old runs; sample only the new runs
  // and merge. Result must equal sampling everything at once.
  DatasetSpec spec;
  spec.n = 40000;
  spec.distribution = Distribution::kUniform;
  auto data = GenerateDataset<uint64_t>(spec);
  OpaqConfig config;
  config.run_size = 2000;
  config.samples_per_run = 200;

  // One-shot over the whole data.
  OpaqEstimator<uint64_t> whole = EstimateQuantilesInMemory(data, config);

  // Split into "old" and "new" halves, sketch separately, merge.
  std::vector<uint64_t> old_half(data.begin(), data.begin() + 20000);
  std::vector<uint64_t> new_half(data.begin() + 20000, data.end());
  OpaqEstimator<uint64_t> old_est = EstimateQuantilesInMemory(old_half, config);
  OpaqEstimator<uint64_t> new_est = EstimateQuantilesInMemory(new_half, config);
  auto merged = SampleList<uint64_t>::Merge(old_est.sample_list(),
                                            new_est.sample_list());
  ASSERT_TRUE(merged.ok());
  OpaqEstimator<uint64_t> combined(std::move(merged).value());

  EXPECT_EQ(combined.sample_list().samples(),
            whole.sample_list().samples());
  EXPECT_EQ(combined.total_elements(), whole.total_elements());
  for (int d = 1; d <= 9; ++d) {
    auto a = combined.Quantile(d / 10.0);
    auto b = whole.Quantile(d / 10.0);
    EXPECT_EQ(a.lower, b.lower);
    EXPECT_EQ(a.upper, b.upper);
  }
}

TEST(IncrementalTest, ManySmallIncrementsStaySound) {
  DatasetSpec spec;
  spec.n = 30000;
  spec.distribution = Distribution::kZipf;
  auto data = GenerateDataset<uint64_t>(spec);
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 50;

  SampleList<uint64_t> acc;
  for (int chunk = 0; chunk < 10; ++chunk) {
    std::vector<uint64_t> part(data.begin() + chunk * 3000,
                               data.begin() + (chunk + 1) * 3000);
    OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(part, config);
    auto merged = SampleList<uint64_t>::Merge(acc, est.sample_list());
    ASSERT_TRUE(merged.ok());
    acc = std::move(merged).value();
  }
  OpaqEstimator<uint64_t> est(std::move(acc));
  GroundTruth<uint64_t> truth(data);
  for (int d = 1; d <= 9; ++d) {
    EXPECT_TRUE(BracketHolds(truth, est.Quantile(d / 10.0))) << d;
  }
}

// --------------------------------------------------------- File pipeline --

TEST(FilePipelineTest, ConsumeFileMatchesInMemory) {
  DatasetSpec spec;
  spec.n = 25000;
  spec.distribution = Distribution::kUniform;
  auto data = GenerateDataset<uint64_t>(spec);
  MemoryBlockDevice dev;
  ASSERT_TRUE(WriteDataset(data, &dev).ok());
  auto file = TypedDataFile<uint64_t>::Open(&dev);
  ASSERT_TRUE(file.ok());

  OpaqConfig config;
  config.run_size = 2500;
  config.samples_per_run = 250;
  OpaqSketch<uint64_t> sketch(config);
  double io_seconds = 0;
  ASSERT_TRUE(sketch.Consume(FileRunProvider<uint64_t>(&*file), &io_seconds).ok());
  EXPECT_EQ(sketch.runs_consumed(), 10u);
  EXPECT_EQ(sketch.elements_consumed(), 25000u);
  EXPECT_GE(io_seconds, 0.0);
  OpaqEstimator<uint64_t> from_file = sketch.Finalize();
  OpaqEstimator<uint64_t> in_memory = EstimateQuantilesInMemory(data, config);
  EXPECT_EQ(from_file.sample_list().samples(),
            in_memory.sample_list().samples());
}

TEST(FilePipelineTest, EstimateQuantilesFromFileHelper) {
  DatasetSpec spec;
  spec.n = 10000;
  auto data = GenerateDataset<uint64_t>(spec);
  MemoryBlockDevice dev;
  ASSERT_TRUE(WriteDataset(data, &dev).ok());
  auto file = TypedDataFile<uint64_t>::Open(&dev);
  ASSERT_TRUE(file.ok());
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  auto estimates = EstimateQuantilesFromFile(&*file, config, 10);
  ASSERT_TRUE(estimates.ok());
  EXPECT_EQ(estimates->size(), 9u);
  GroundTruth<uint64_t> truth(data);
  for (const auto& e : *estimates) EXPECT_TRUE(BracketHolds(truth, e));
}

// ------------------------------------------------------ Exact second pass --

TEST(ExactSecondPassTest, RecoversExactQuantile) {
  DatasetSpec spec;
  spec.n = 20000;
  spec.distribution = Distribution::kUniform;
  auto data = GenerateDataset<uint64_t>(spec);
  MemoryBlockDevice dev;
  ASSERT_TRUE(WriteDataset(data, &dev).ok());
  auto file = TypedDataFile<uint64_t>::Open(&dev);
  ASSERT_TRUE(file.ok());

  OpaqConfig config;
  config.run_size = 2000;
  config.samples_per_run = 100;
  OpaqSketch<uint64_t> sketch(config);
  ASSERT_TRUE(sketch.Consume(FileRunProvider<uint64_t>(&*file)).ok());
  OpaqEstimator<uint64_t> est = sketch.Finalize();
  GroundTruth<uint64_t> truth(data);

  for (double phi : {0.25, 0.5, 0.75, 0.9}) {
    auto e = est.Quantile(phi);
    ASSERT_FALSE(e.lower_clamped);
    ASSERT_FALSE(e.upper_clamped);
    auto exact = ExactQuantileSecondPass(FileRunProvider<uint64_t>(&*file),
                                         e, config.read_options());
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(*exact, truth.Quantile(phi)) << phi;
  }
}

TEST(ExactSecondPassTest, WorksOnDuplicateHeavyData) {
  DatasetSpec spec;
  spec.n = 10000;
  spec.distribution = Distribution::kZipf;
  spec.zipf_universe = 50;  // very few distinct values
  auto data = GenerateDataset<uint64_t>(spec);
  MemoryBlockDevice dev;
  ASSERT_TRUE(WriteDataset(data, &dev).ok());
  auto file = TypedDataFile<uint64_t>::Open(&dev);
  ASSERT_TRUE(file.ok());

  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  OpaqSketch<uint64_t> sketch(config);
  ASSERT_TRUE(sketch.Consume(FileRunProvider<uint64_t>(&*file)).ok());
  OpaqEstimator<uint64_t> est = sketch.Finalize();
  GroundTruth<uint64_t> truth(data);
  auto e = est.Quantile(0.5);
  // With so few distinct values the bracket may hold many duplicates; give
  // the pass a budget big enough to hold them.
  auto exact = ExactQuantileSecondPass(FileRunProvider<uint64_t>(&*file), e,
                                       config.read_options(), spec.n);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(*exact, truth.Quantile(0.5));
}

TEST(ExactSecondPassTest, RefusesClampedBounds) {
  std::vector<uint64_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  OpaqConfig config;
  config.run_size = 10;
  config.samples_per_run = 2;  // c=5, r=10: small psi clamps
  OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);
  auto e = est.QuantileByRank(1);
  ASSERT_TRUE(e.lower_clamped);
  MemoryBlockDevice dev;
  ASSERT_TRUE(WriteDataset(data, &dev).ok());
  auto file = TypedDataFile<uint64_t>::Open(&dev);
  ASSERT_TRUE(file.ok());
  auto exact = ExactQuantileSecondPass(FileRunProvider<uint64_t>(&*file), e,
                                       config.read_options());
  EXPECT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExactSecondPassTest, BudgetExhaustionSurfaces) {
  std::vector<uint64_t> data(1000, 7);  // all duplicates
  OpaqConfig config;
  config.run_size = 100;
  config.samples_per_run = 10;
  OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);
  MemoryBlockDevice dev;
  ASSERT_TRUE(WriteDataset(data, &dev).ok());
  auto file = TypedDataFile<uint64_t>::Open(&dev);
  ASSERT_TRUE(file.ok());
  auto e = est.Quantile(0.5);
  auto exact = ExactQuantileSecondPass(FileRunProvider<uint64_t>(&*file), e,
                                       config.read_options(), /*budget=*/10);
  EXPECT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kResourceExhausted);
}

// ------------------------------------------------ Exact-pass bracket scan --

// Serves `data` as runs whose lengths cycle through `lengths`; a zero gives
// an empty run, and the last run is cut short by the end of the data.
template <typename K>
class RaggedRunProvider : public RunProvider<K> {
 public:
  RaggedRunProvider(const std::vector<K>* data, std::vector<size_t> lengths)
      : data_(data), lengths_(std::move(lengths)) {}

  uint64_t size() const override { return data_->size(); }

  std::unique_ptr<RunSource<K>> OpenRuns(const ReadOptions&, uint64_t = 0,
                                         uint64_t = UINT64_MAX) const override {
    return std::make_unique<Source>(data_, lengths_);
  }

 private:
  class Source : public RunSource<K> {
   public:
    Source(const std::vector<K>* data, std::vector<size_t> lengths)
        : data_(data), lengths_(std::move(lengths)) {}

    Result<bool> NextRun(std::vector<K>* buffer) override {
      buffer->clear();
      if (next_ >= data_->size()) return false;
      const size_t len =
          std::min(lengths_[run_++ % lengths_.size()], data_->size() - next_);
      buffer->assign(data_->begin() + next_, data_->begin() + next_ + len);
      next_ += len;
      return true;
    }

   private:
    const std::vector<K>* data_;
    std::vector<size_t> lengths_;
    size_t next_ = 0;
    size_t run_ = 0;
  };

  const std::vector<K>* data_;
  std::vector<size_t> lengths_;
};

// The definition of the scan: every element tested against every bracket,
// O(n q).
template <typename K>
internal_exact::BracketAccumulator<K> NaiveBrackets(
    const std::vector<K>& data,
    const std::vector<QuantileEstimate<K>>& estimates) {
  internal_exact::BracketAccumulator<K> acc(estimates.size());
  for (const K& v : data) {
    for (size_t q = 0; q < estimates.size(); ++q) {
      if (v < estimates[q].lower) {
        ++acc.below[q];
      } else if (!(estimates[q].upper < v)) {
        acc.kept[q].push_back(v);
        ++acc.held;
      }
    }
  }
  return acc;
}

// Bitwise equality, so a -0.0 kept where the reference keeps +0.0 fails.
template <typename K>
bool SameBits(const std::vector<K>& a, const std::vector<K>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(K)) ==
                           0);
}

enum class ScanShape { kUniform, kZipf, kAllEqual, kTwoValued };

template <typename K>
std::vector<K> ScanShapeData(ScanShape shape, size_t n) {
  DatasetSpec spec;
  spec.n = n;
  spec.seed = 17 + static_cast<uint64_t>(shape);
  std::vector<K> data;
  switch (shape) {
    case ScanShape::kUniform:
    case ScanShape::kZipf:
      spec.distribution = shape == ScanShape::kUniform ? Distribution::kUniform
                                                       : Distribution::kZipf;
      data = GenerateDataset<K>(spec);
      if constexpr (std::is_floating_point_v<K>) {
        // Both zeros, which compare equal but differ in their bits.
        for (size_t i = 0; i < n; i += 7) data[i] = (i % 2 == 0) ? -0.0 : 0.0;
      }
      break;
    case ScanShape::kAllEqual:
      data.assign(n, K{5});
      break;
    case ScanShape::kTwoValued: {
      Xoshiro256 rng(spec.seed);
      for (size_t i = 0; i < n; ++i) {
        data.push_back(rng.Next() & 1 ? K{3} : K{9});
      }
      break;
    }
  }
  return data;
}

// Bracket sets built from `base` (real estimates): the set itself, shuffled,
// and, for small sets, a mangled set mixing duplicates, overlapping unions,
// degenerate [v, v] brackets and inverted ones (upper < lower), which cover
// nothing. (On all-equal data every bracket keeps every element, so a
// mangled thousand-bracket set would hold tens of millions of keys.)
template <typename K>
std::vector<std::vector<QuantileEstimate<K>>> BracketSets(
    const std::vector<QuantileEstimate<K>>& base, const std::vector<K>& data) {
  std::vector<QuantileEstimate<K>> shuffled = base;
  Xoshiro256 rng(base.size());
  Shuffle(shuffled, rng);
  if (base.size() > 100) return {base, shuffled};
  std::vector<QuantileEstimate<K>> mangled = shuffled;
  mangled.insert(mangled.end(), base.begin(), base.end());
  for (size_t i = 0; i < base.size(); ++i) {
    QuantileEstimate<K> wide = base[i];
    wide.upper =
        std::max(wide.upper, base[std::min(i + 3, base.size() - 1)].upper);
    mangled.push_back(wide);
    QuantileEstimate<K> point = base[i];
    point.upper = point.lower;
    mangled.push_back(point);
    QuantileEstimate<K> inverted = base[i];
    std::swap(inverted.lower, inverted.upper);
    if (inverted.upper < inverted.lower) mangled.push_back(inverted);
  }
  auto add = [&](K lower, K upper) {
    QuantileEstimate<K> e = base.front();
    e.lower = lower;
    e.upper = upper;
    mangled.push_back(e);
  };
  const auto [lo, hi] = std::minmax_element(data.begin(), data.end());
  add(*lo, *lo);
  add(*hi, *hi);
  add(*lo, *hi);
  add(*hi, *lo);
  if constexpr (std::is_floating_point_v<K>) {
    add(-0.0, 0.0);
    add(0.0, -0.0);
    add(-0.0, -0.0);
    add(-1.0, 0.0);
  }
  return {base, shuffled, mangled};
}

template <typename K>
class BracketScanTest : public ::testing::Test {};

using ScanKeyTypes = ::testing::Types<uint32_t, uint64_t, int64_t, double>;
TYPED_TEST_SUITE(BracketScanTest, ScanKeyTypes);

TYPED_TEST(BracketScanTest, MatchesNaiveReference) {
  using K = TypeParam;
  constexpr size_t kN = 3000;
  OpaqConfig config;
  config.run_size = 500;
  config.samples_per_run = 50;
  // Ragged runs, empty ones among them; the last run is a partial one.
  const std::vector<size_t> lengths = {1000, 0, 1, 333, 0, 777, 257};
  for (ScanShape shape : {ScanShape::kUniform, ScanShape::kZipf,
                          ScanShape::kAllEqual, ScanShape::kTwoValued}) {
    const std::vector<K> data = ScanShapeData<K>(shape, kN);
    const OpaqEstimator<K> estimator = EstimateQuantilesInMemory(data, config);
    for (size_t q : {1, 2, 100, 1000}) {
      std::vector<QuantileEstimate<K>> base;
      for (size_t i = 1; i <= q; ++i) {
        base.push_back(estimator.Quantile(static_cast<double>(i) / (q + 1)));
      }
      for (const auto& estimates : BracketSets(base, data)) {
        SCOPED_TRACE(testing::Message()
                     << "shape " << static_cast<int>(shape) << " q " << q
                     << " brackets " << estimates.size());
        const internal_exact::BracketAccumulator<K> want =
            NaiveBrackets(data, estimates);
        internal_exact::BracketAccumulator<K> got(estimates.size());
        ASSERT_TRUE(internal_exact::AccumulateBrackets(
                        RaggedRunProvider<K>(&data, lengths), estimates,
                        config.read_options(), UINT64_MAX, &got)
                        .ok());
        EXPECT_EQ(got.below, want.below);
        EXPECT_EQ(got.held, want.held);
        for (size_t b = 0; b < estimates.size(); ++b) {
          ASSERT_TRUE(SameBits(got.kept[b], want.kept[b])) << "bracket " << b;
        }
      }
    }
  }
}

// Scans ragged runs around the block and slab edges at every width from 1
// to 7 and expects the naive reference's counts and kept sets, bit for bit
// and in its order, whatever the width.
template <typename K>
void ExpectEveryWidthMatchesNaive() {
  constexpr size_t kSlab = internal_exact::kExactSlab;
  const std::vector<size_t> lengths = {0,   1,         255,   256,
                                       257, kSlab - 1, kSlab, kSlab + 1};
  const size_t full =
      std::accumulate(lengths.begin(), lengths.end(), size_t{0});
  OpaqConfig config;
  config.run_size = 1 << 16;
  config.samples_per_run = 1 << 12;
  for (ScanShape shape : {ScanShape::kUniform, ScanShape::kZipf,
                          ScanShape::kAllEqual, ScanShape::kTwoValued}) {
    const std::vector<K> all = ScanShapeData<K>(shape, full);
    const OpaqEstimator<K> estimator = EstimateQuantilesInMemory(all, config);
    // The naive reference costs n x brackets comparisons, and on all-equal
    // and two-valued data every bracket keeps about every element. Each
    // scan reads the longest prefix that keeps n x brackets under 2^25
    // (2^20 where that many are kept): full slabs up to q = 100 and
    // several stripes at a thousand brackets on uniform and zipf data,
    // full slabs up to q = 2 on the others.
    const bool heavy =
        shape == ScanShape::kAllEqual || shape == ScanShape::kTwoValued;
    const size_t work = size_t{1} << (heavy ? 20 : 25);
    for (size_t q : {1, 2, 100, 1000}) {
      std::vector<QuantileEstimate<K>> base;
      for (size_t i = 1; i <= q; ++i) {
        base.push_back(estimator.Quantile(static_cast<double>(i) / (q + 1)));
      }
      for (const auto& estimates : BracketSets(base, all)) {
        const std::vector<K> data(
            all.begin(),
            all.begin() + std::min(full, work / estimates.size()));
        const internal_exact::BracketAccumulator<K> want =
            NaiveBrackets(data, estimates);
        for (size_t workers = 1; workers <= 7; ++workers) {
          SCOPED_TRACE(testing::Message()
                       << "shape " << static_cast<int>(shape) << " q " << q
                       << " brackets " << estimates.size() << " n "
                       << data.size() << " workers " << workers);
          internal_exact::BracketAccumulator<K> got(estimates.size());
          ASSERT_TRUE(internal_exact::AccumulateBrackets(
                          RaggedRunProvider<K>(&data, lengths), estimates,
                          config.read_options(), UINT64_MAX, &got,
                          /*shared_held=*/nullptr, workers)
                          .ok());
          EXPECT_EQ(got.below, want.below);
          EXPECT_EQ(got.held, want.held);
          for (size_t b = 0; b < estimates.size(); ++b) {
            ASSERT_TRUE(SameBits(got.kept[b], want.kept[b]))
                << "bracket " << b;
          }
        }
      }
    }
  }
}

// One integer and one floating key type (whose two zeros must keep their
// bits) keep the matrix short enough for the sanitizer builds.
TEST(BracketScanTest, EveryWidthKeepsTheNaiveScanOrder) {
  ExpectEveryWidthMatchesNaive<uint64_t>();
  ExpectEveryWidthMatchesNaive<double>();
}

TYPED_TEST(BracketScanTest, ShardsAccumulateIntoOneAccumulator) {
  using K = TypeParam;
  const std::vector<K> data = ScanShapeData<K>(ScanShape::kZipf, 5000);
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  const auto estimates =
      EstimateQuantilesInMemory(data, config).EquiQuantiles(100);
  const std::vector<K> head(data.begin(), data.begin() + 1234);
  const std::vector<K> tail(data.begin() + 1234, data.end());
  internal_exact::BracketAccumulator<K> got(estimates.size());
  for (const std::vector<K>* shard : {&head, &tail}) {
    ASSERT_TRUE(internal_exact::AccumulateBrackets(
                    RaggedRunProvider<K>(shard, {500, 0, 71}), estimates,
                    config.read_options(), UINT64_MAX, &got)
                    .ok());
  }
  const auto want = NaiveBrackets(data, estimates);
  EXPECT_EQ(got.below, want.below);
  for (size_t b = 0; b < estimates.size(); ++b) {
    EXPECT_TRUE(SameBits(got.kept[b], want.kept[b])) << "bracket " << b;
  }
}

TEST(BracketScanTest, ExactBatchOfAThousandReturnsTrueOrderStatistics) {
  for (Distribution distribution :
       {Distribution::kUniform, Distribution::kZipf}) {
    DatasetSpec spec;
    spec.n = 200000;
    spec.distribution = distribution;
    const std::vector<uint64_t> data = GenerateDataset<uint64_t>(spec);
    OpaqConfig config;
    config.run_size = 20000;
    config.samples_per_run = 2000;
    const OpaqEstimator<uint64_t> estimator =
        EstimateQuantilesInMemory(data, config);
    std::vector<QuantileEstimate<uint64_t>> certified;
    for (const auto& e : estimator.EquiQuantiles(1001)) {
      if (!e.lower_clamped && !e.upper_clamped) certified.push_back(e);
    }
    ASSERT_GT(certified.size(), 990u);
    auto exact = ExactQuantilesSecondPass(
        MemoryRunProvider<uint64_t>(data), certified, config.read_options());
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    std::vector<uint64_t> sorted = data;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < certified.size(); ++i) {
      ASSERT_EQ((*exact)[i], sorted[certified[i].target_rank - 1])
          << "rank " << certified[i].target_rank;
    }
  }
}

TEST(BracketScanTest, SharedBudgetBoundsTheTotalAcrossShards) {
  // Each shard alone fits the budget; together they do not.
  const std::vector<uint64_t> data(1000, 7);
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 10;
  const auto estimate =
      EstimateQuantilesInMemory(data, config).Quantile(0.5);
  const MemoryRunProvider<uint64_t> shard(data);
  std::atomic<uint64_t> shared_held{0};
  internal_exact::BracketAccumulator<uint64_t> first(1), second(1);
  EXPECT_TRUE(internal_exact::AccumulateBrackets(shard, {estimate},
                                                 config.read_options(), 1500,
                                                 &first, &shared_held)
                  .ok());
  const Status status = internal_exact::AccumulateBrackets(
      shard, {estimate}, config.read_options(), 1500, &second, &shared_held);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("memory budget"), std::string::npos);
  // The budget is charged per 256-element block: the failing scan stops
  // after the block that crossed it, not at the end of its one run.
  EXPECT_EQ(second.held, 2 * internal_exact::kExactScanBlock);
}

TEST(BracketScanTest, EachWorkerOvershootsTheBudgetByAtMostOneBlock) {
  // Every element lies in both brackets, so each block charges twice its
  // length; with W workers the stripes stop at W blocks past the budget.
  const std::vector<uint64_t> data(internal_exact::kExactSlab, 7);
  OpaqConfig config;
  config.run_size = data.size();
  config.samples_per_run = 1024;
  const auto estimates =
      EstimateQuantilesInMemory(data, config).EquiQuantiles(3);
  ASSERT_EQ(estimates.size(), 2u);
  constexpr uint64_t kBudget = 20000;
  for (size_t workers = 1; workers <= 7; ++workers) {
    SCOPED_TRACE(testing::Message() << "workers " << workers);
    // Alone, and with another scan's 5000 kept elements already charged.
    for (uint64_t charged : {uint64_t{0}, uint64_t{5000}}) {
      std::atomic<uint64_t> shared_held{charged};
      internal_exact::BracketAccumulator<uint64_t> acc(estimates.size());
      const Status status = internal_exact::AccumulateBrackets(
          MemoryRunProvider<uint64_t>(data), estimates, config.read_options(),
          kBudget, &acc, charged == 0 ? nullptr : &shared_held, workers);
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      EXPECT_GT(acc.held + charged, kBudget);
      EXPECT_LE(acc.held + charged,
                kBudget + workers * internal_exact::kExactScanBlock * 2);
      if (charged != 0) {
        EXPECT_EQ(shared_held.load(), acc.held + charged);
      }
    }
  }
}

TEST(BracketScanTest, NestedBracketsOverBudgetFailBeforeTheScan) {
  // 1000 nested brackets [k, 2000 - k] over keys the data never holds keep
  // nothing, but their cover table would hold about two million entries.
  const std::vector<uint64_t> data(1000, 7);
  std::vector<QuantileEstimate<uint64_t>> nested(1000);
  for (uint64_t k = 0; k < nested.size(); ++k) {
    nested[k].lower = 10000 + k;
    nested[k].upper = 12000 - k;
  }
  internal_exact::BracketAccumulator<uint64_t> acc(nested.size());
  const Status status = internal_exact::AccumulateBrackets(
      MemoryRunProvider<uint64_t>(data), nested, ReadOptions(), 100000, &acc);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(acc.below, std::vector<uint64_t>(nested.size(), 0));
  // With room for the table the same brackets scan cleanly.
  internal_exact::BracketAccumulator<uint64_t> roomy(nested.size());
  EXPECT_TRUE(internal_exact::AccumulateBrackets(
                  MemoryRunProvider<uint64_t>(data), nested, ReadOptions(),
                  2000000, &roomy)
                  .ok());
  EXPECT_EQ(roomy.held, 0u);
}

// ---------------------------------------------------------- Typed sweeps --

template <typename K>
class TypedOpaqTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<uint32_t, uint64_t, int64_t, float, double>;
TYPED_TEST_SUITE(TypedOpaqTest, KeyTypes);

TYPED_TEST(TypedOpaqTest, BracketsHoldForEveryKeyType) {
  DatasetSpec spec;
  spec.n = 20000;
  spec.distribution = Distribution::kUniform;
  auto data = GenerateDataset<TypeParam>(spec);
  OpaqConfig config;
  config.run_size = 2000;
  config.samples_per_run = 100;
  OpaqEstimator<TypeParam> est = EstimateQuantilesInMemory(data, config);
  GroundTruth<TypeParam> truth(data);
  for (int d = 1; d <= 9; ++d) {
    EXPECT_TRUE(BracketHolds(truth, est.Quantile(d / 10.0))) << d;
  }
}

}  // namespace
}  // namespace opaq
