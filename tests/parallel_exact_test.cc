// Tests for the distributed exact-quantile second pass
// (parallel/parallel_exact.h): exact recovery across cluster shapes, error
// paths, and agreement with the sequential second pass.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/exact.h"
#include "core/opaq.h"
#include "data/dataset.h"
#include "io/faulty_device.h"
#include "metrics/ground_truth.h"
#include "opaq/parallel.h"
#include "opaq/source.h"
#include "parallel/parallel_exact.h"
#include "parallel/parallel_opaq.h"

namespace opaq {
namespace {

struct Shards {
  std::vector<std::unique_ptr<BlockDevice>> devices;
  std::vector<TypedDataFile<uint64_t>> files;
  std::vector<Source<uint64_t>> sources;
  std::vector<uint64_t> union_data;

  Shards(int p, uint64_t per_rank, Distribution dist, uint64_t fail_rank_read)
      : Shards(Generate(p, per_rank, dist), fail_rank_read) {}

  explicit Shards(const std::vector<std::vector<uint64_t>>& per_rank,
                  uint64_t fail_rank_read = 0) {
    for (size_t r = 0; r < per_rank.size(); ++r) {
      const std::vector<uint64_t>& data = per_rank[r];
      union_data.insert(union_data.end(), data.begin(), data.end());
      auto inner = std::make_unique<MemoryBlockDevice>();
      OPAQ_CHECK_OK(WriteDataset(data, inner.get()));
      if (fail_rank_read != 0 && r == 1) {
        FaultyDevice::Options options;
        options.fail_read_at = fail_rank_read;
        devices.push_back(std::make_unique<FaultyDevice>(std::move(inner),
                                                         options));
      } else {
        devices.push_back(std::move(inner));
      }
      auto file = TypedDataFile<uint64_t>::Open(devices.back().get());
      OPAQ_CHECK_OK(file.status());
      files.push_back(std::move(file).value());
    }
    for (auto& f : files) sources.push_back(Source<uint64_t>::FromFile(&f));
  }

  static std::vector<std::vector<uint64_t>> Generate(int p, uint64_t per_rank,
                                                     Distribution dist) {
    std::vector<std::vector<uint64_t>> per_rank_data;
    for (int r = 0; r < p; ++r) {
      DatasetSpec spec;
      spec.n = per_rank;
      spec.seed = 500 + r;
      spec.distribution = dist;
      per_rank_data.push_back(GenerateDataset<uint64_t>(spec));
    }
    return per_rank_data;
  }
};

/// Runs the §4 pass on every rank of a `shards.sources.size()`-processor
/// cluster; returns rank 0's answers and stores every rank's status.
std::vector<uint64_t> RunExactPass(
    const Shards& shards, const std::vector<QuantileEstimate<uint64_t>>& estimates,
    const ReadOptions& read_options, uint64_t budget,
    std::vector<Status>* rank_statuses) {
  const int p = static_cast<int>(shards.sources.size());
  Cluster::Options cluster_options;
  cluster_options.num_processors = p;
  Cluster cluster(cluster_options);
  std::vector<uint64_t> exact;
  rank_statuses->assign(p, Status::OK());
  cluster.Run([&](ProcessorContext& ctx) -> Status {
    auto result = ParallelExactQuantiles(ctx, shards.sources[ctx.rank()],
                                         estimates, read_options, budget);
    (*rank_statuses)[ctx.rank()] = result.status();
    if (result.ok() && ctx.rank() == 0) exact = std::move(result).value();
    return result.status();
  });
  return exact;
}

class ParallelExactTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelExactTest, RecoversExactDectilesAcrossClusterShapes) {
  const int p = GetParam();
  Shards shards(p, 20000, Distribution::kZipf, 0);

  Cluster::Options cluster_options;
  cluster_options.num_processors = p;
  Cluster cluster(cluster_options);
  ParallelOpaqOptions options;
  options.config.run_size = 2000;
  options.config.samples_per_run = 200;

  auto estimate_run = RunParallelOpaq(cluster, shards.sources, options);
  ASSERT_TRUE(estimate_run.ok());
  std::vector<QuantileEstimate<uint64_t>> estimates =
      estimate_run->estimates;
  for (const auto& e : estimates) {
    ASSERT_FALSE(e.lower_clamped);
    ASSERT_FALSE(e.upper_clamped);
  }

  std::vector<uint64_t> exact;
  Status s = cluster.Run([&](ProcessorContext& ctx) -> Status {
    auto result = ParallelExactQuantiles(
        ctx, shards.sources[ctx.rank()], estimates,
        options.config.read_options());
    if (!result.ok()) return result.status();
    if (ctx.rank() == 0) exact = std::move(result).value();
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  GroundTruth<uint64_t> truth(shards.union_data);
  ASSERT_EQ(exact.size(), 9u);
  for (int d = 1; d <= 9; ++d) {
    EXPECT_EQ(exact[d - 1], truth.Quantile(d / 10.0)) << "p=" << p << " d"
                                                      << d;
  }
}

INSTANTIATE_TEST_SUITE_P(ClusterShapes, ParallelExactTest,
                         ::testing::Values(1, 2, 3, 4, 8),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

TEST(ParallelExactTest2, AgreesWithSequentialSecondPass) {
  Shards shards(1, 30000, Distribution::kUniform, 0);
  Cluster::Options cluster_options;
  cluster_options.num_processors = 1;
  Cluster cluster(cluster_options);
  ParallelOpaqOptions options;
  options.config.run_size = 3000;
  options.config.samples_per_run = 150;
  auto run = RunParallelOpaq(cluster, shards.sources, options);
  ASSERT_TRUE(run.ok());

  auto sequential = ExactQuantilesSecondPass(
      shards.sources[0].provider(), run->estimates,
      options.config.read_options());
  ASSERT_TRUE(sequential.ok());

  std::vector<uint64_t> parallel_exact;
  auto estimates = run->estimates;
  Status s = cluster.Run([&](ProcessorContext& ctx) -> Status {
    auto result = ParallelExactQuantiles(ctx, shards.sources[0], estimates,
                                         options.config.read_options());
    if (!result.ok()) return result.status();
    parallel_exact = std::move(result).value();
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(parallel_exact, *sequential);
}

TEST(ParallelExactTest2, RefusesClampedEstimates) {
  Shards shards(2, 1000, Distribution::kUniform, 0);
  Cluster::Options cluster_options;
  cluster_options.num_processors = 2;
  Cluster cluster(cluster_options);
  QuantileEstimate<uint64_t> clamped;
  clamped.target_rank = 1;
  clamped.lower_clamped = true;
  clamped.max_rank_error = 100;
  Status s = cluster.Run([&](ProcessorContext& ctx) -> Status {
    ReadOptions read_options;
    read_options.run_size = 100;
    auto result = ParallelExactQuantiles(
        ctx, shards.sources[ctx.rank()],
        std::vector<QuantileEstimate<uint64_t>>{clamped}, read_options);
    return result.status();
  });
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(ParallelExactTest2, OneFailingDiskAbortsCleanly) {
  const int p = 4;
  Shards healthy(p, 10000, Distribution::kUniform, 0);
  Cluster::Options cluster_options;
  cluster_options.num_processors = p;
  Cluster cluster(cluster_options);
  ParallelOpaqOptions options;
  options.config.run_size = 1000;
  options.config.samples_per_run = 100;
  auto run = RunParallelOpaq(cluster, healthy.sources, options);
  ASSERT_TRUE(run.ok());

  // Same logical shards, but rank 1's disk dies mid-pass this time.
  Shards faulty(p, 10000, Distribution::kUniform, /*fail_rank_read=*/4);
  auto estimates = run->estimates;
  Status s = cluster.Run([&](ProcessorContext& ctx) -> Status {
    auto result = ParallelExactQuantiles(
        ctx, faulty.sources[ctx.rank()], estimates,
        options.config.read_options());
    return result.status();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(ParallelExactTest2, ThousandEquiQuantileBracketsAreExact) {
  // 999 brackets in one pass on 3 ranks: every answer is the true order
  // statistic of the union.
  Shards shards(3, 30000, Distribution::kUniform, 0);
  Cluster::Options cluster_options;
  cluster_options.num_processors = 3;
  Cluster cluster(cluster_options);
  ParallelOpaqOptions options;
  options.config.run_size = 10000;
  options.config.samples_per_run = 5000;
  options.phis.clear();
  for (int i = 1; i < 1000; ++i) options.phis.push_back(i / 1000.0);
  auto run = RunParallelOpaq(cluster, shards.sources, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->estimates.size(), 999u);
  for (const auto& e : run->estimates) {
    ASSERT_FALSE(e.lower_clamped || e.upper_clamped) << e.target_rank;
  }

  std::vector<Status> statuses;
  const std::vector<uint64_t> exact =
      RunExactPass(shards, run->estimates, options.config.read_options(),
                   /*budget=*/0, &statuses);
  for (const Status& status : statuses) {
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  GroundTruth<uint64_t> truth(shards.union_data);
  ASSERT_EQ(exact.size(), 999u);
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i], truth.ValueAtRank(run->estimates[i].target_rank))
        << "bracket " << i;
  }
}

TEST(ParallelExactTest2, DuplicateHeavyBatchIsExactWithEnoughBudget) {
  // Four distinct keys over 3 ranks: every bracket keeps at least one
  // key's 2000 copies per rank, past the default budget, which fails on
  // every rank; a raised budget gives the true order statistics.
  std::vector<std::vector<uint64_t>> per_rank(3);
  for (size_t r = 0; r < per_rank.size(); ++r) {
    for (uint64_t i = 0; i < 8000; ++i) {
      per_rank[r].push_back((i * 7 + r) % 4);
    }
  }
  Shards shards(per_rank);
  Cluster::Options cluster_options;
  cluster_options.num_processors = 3;
  Cluster cluster(cluster_options);
  ParallelOpaqOptions options;
  options.config.run_size = 2000;
  options.config.samples_per_run = 100;
  auto run = RunParallelOpaq(cluster, shards.sources, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const auto& e : run->estimates) {
    ASSERT_FALSE(e.lower_clamped || e.upper_clamped) << e.target_rank;
  }

  std::vector<Status> statuses;
  RunExactPass(shards, run->estimates, options.config.read_options(),
               /*budget=*/0, &statuses);
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << status.ToString();
  }
  const std::vector<uint64_t> exact =
      RunExactPass(shards, run->estimates, options.config.read_options(),
                   /*budget=*/shards.union_data.size() *
                       run->estimates.size(),
                   &statuses);
  for (const Status& status : statuses) {
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  GroundTruth<uint64_t> truth(shards.union_data);
  ASSERT_EQ(exact.size(), run->estimates.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i], truth.ValueAtRank(run->estimates[i].target_rank))
        << "bracket " << i;
  }
}

/// A rank's data that counts how often the pass opens it.
class CountingProvider : public MemoryRunProvider<uint64_t> {
 public:
  using MemoryRunProvider<uint64_t>::MemoryRunProvider;
  std::unique_ptr<RunSource<uint64_t>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    ++opens;
    return MemoryRunProvider<uint64_t>::OpenRuns(options, first, count);
  }
  mutable int opens = 0;
};

TEST(ParallelExactTest2, NestedBracketsOverBudgetFailBeforeAnyRead) {
  // 1000 nested brackets [10000 + k, 12000 - k] over keys the data never
  // holds keep nothing, but their cover table would hold about two million
  // entries: every rank refuses them under a 100K budget without opening
  // its data.
  const int p = 3;
  std::vector<std::unique_ptr<CountingProvider>> providers;
  for (int r = 0; r < p; ++r) {
    providers.push_back(std::make_unique<CountingProvider>(
        std::vector<uint64_t>(1000, 7 + r)));
  }
  std::vector<QuantileEstimate<uint64_t>> nested(1000);
  for (uint64_t k = 0; k < nested.size(); ++k) {
    nested[k].lower = 10000 + k;
    nested[k].upper = 12000 - k;
  }
  Cluster::Options cluster_options;
  cluster_options.num_processors = p;
  Cluster cluster(cluster_options);
  std::vector<Status> statuses(p);
  const Status s = cluster.Run([&](ProcessorContext& ctx) -> Status {
    ReadOptions read_options;
    read_options.run_size = 100;
    statuses[ctx.rank()] =
        ParallelExactQuantiles<uint64_t>(ctx, *providers[ctx.rank()], nested,
                                         read_options,
                                         /*local_memory_budget=*/100000)
            .status();
    return statuses[ctx.rank()];
  });
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(statuses[r].code(), StatusCode::kResourceExhausted)
        << "rank " << r << ": " << statuses[r].ToString();
    EXPECT_EQ(providers[r]->opens, 0) << "rank " << r;
  }
}

}  // namespace
}  // namespace opaq
