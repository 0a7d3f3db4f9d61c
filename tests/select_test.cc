// Unit + property tests for src/select: partition primitives, all selection
// algorithms, and multi-select / regular sampling. Selection algorithms are
// cross-checked against sorting over a grid of input shapes via TEST_P.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>

#include "data/dataset.h"
#include "parallel/worker_pool.h"
#include "select/multi_select.h"
#include "select/select.h"

namespace opaq {
namespace {

// -------------------------------------------------------------- Partition --

TEST(PartitionTest, ThreeWaySplitsCorrectly) {
  std::vector<int> v{5, 1, 5, 3, 9, 5, 7, 2, 5};
  PartitionBounds b = ThreeWayPartition(v.data(), v.size(), 5);
  for (size_t i = 0; i < b.lt; ++i) EXPECT_LT(v[i], 5);
  for (size_t i = b.lt; i < b.gt; ++i) EXPECT_EQ(v[i], 5);
  for (size_t i = b.gt; i < v.size(); ++i) EXPECT_GT(v[i], 5);
  EXPECT_EQ(b.gt - b.lt, 4u);  // four fives
}

TEST(PartitionTest, AllEqualCollapsesToEqualBand) {
  std::vector<int> v(100, 7);
  PartitionBounds b = ThreeWayPartition(v.data(), v.size(), 7);
  EXPECT_EQ(b.lt, 0u);
  EXPECT_EQ(b.gt, 100u);
}

TEST(PartitionTest, PivotAbsentFromData) {
  std::vector<int> v{1, 9, 2, 8};
  PartitionBounds b = ThreeWayPartition(v.data(), v.size(), 5);
  EXPECT_EQ(b.lt, 2u);
  EXPECT_EQ(b.gt, 2u);
}

TEST(PartitionTest, EmptyInput) {
  std::vector<int> v;
  PartitionBounds b = ThreeWayPartition(v.data(), 0, 5);
  EXPECT_EQ(b.lt, 0u);
  EXPECT_EQ(b.gt, 0u);
}

// Partitions `input` around each of `pivots` and checks the [<, ==, >]
// contract with `<` alone, and that the result is a permutation of the input.
template <typename K>
void CheckThreeWayPartition(const std::vector<K>& input,
                            const std::vector<K>& pivots,
                            const std::string& what) {
  auto bits_sorted = [](std::vector<K> keys) {
    std::vector<uint64_t> bits(keys.size(), 0);
    for (size_t i = 0; i < keys.size(); ++i) {
      std::memcpy(&bits[i], &keys[i], sizeof(K));
    }
    std::sort(bits.begin(), bits.end());
    return bits;
  };
  for (const K& pivot : pivots) {
    SCOPED_TRACE(what + " pivot=" + std::to_string(pivot));
    std::vector<K> v = input;
    const PartitionBounds b = ThreeWayPartition(v.data(), v.size(), pivot);
    ASSERT_LE(b.lt, b.gt);
    ASSERT_LE(b.gt, v.size());
    for (size_t i = 0; i < b.lt; ++i) ASSERT_TRUE(v[i] < pivot) << i;
    for (size_t i = b.lt; i < b.gt; ++i) {
      ASSERT_FALSE(v[i] < pivot) << i;
      ASSERT_FALSE(pivot < v[i]) << i;
    }
    for (size_t i = b.gt; i < v.size(); ++i) ASSERT_TRUE(pivot < v[i]) << i;
    ASSERT_EQ(bits_sorted(v), bits_sorted(input));
  }
}

TEST(PartitionTest, ThreeWayContractOnEveryKeyMix) {
  Xoshiro256 rng(17);
  std::vector<uint64_t> random(3001), equal(1000, 5), few(2000);
  for (uint64_t& key : random) key = rng.NextBounded(1000000);
  for (uint64_t& key : few) key = rng.NextBounded(4);
  CheckThreeWayPartition(random, {random[0], random[1500], 0, 999999, 2000000},
                         "random");
  CheckThreeWayPartition(equal, {4, 5, 6}, "all-equal");
  CheckThreeWayPartition(few, {0, 1, 2, 3, 4}, "few-valued");
  // -0.0 and +0.0 compare equal: both land in the equal band of either.
  std::vector<double> zeros(999);
  for (double& key : zeros) {
    const uint64_t pick = rng.NextBounded(4);
    key = pick == 0 ? -0.0 : pick == 1 ? 0.0 : pick == 2 ? -1.5 : 2.5;
  }
  CheckThreeWayPartition(zeros, {-0.0, 0.0, -1.5, 2.5, 1.0}, "signed zeros");
}

TEST(InsertionSortTest, SortsSmallArrays) {
  std::vector<int> v{5, 3, 1, 4, 2};
  InsertionSort(v.data(), v.size());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(MedianOfThreeTest, LeavesMedianInMiddle) {
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      for (int c = 0; c < 3; ++c) {
        int x = a, y = b, z = c;
        MedianOfThree(x, y, z);
        EXPECT_LE(x, y);
        EXPECT_LE(y, z);
      }
    }
  }
}

// ------------------------------------------- Selection algorithms (TEST_P) --

struct SelectCase {
  SelectAlgorithm algorithm;
  Distribution distribution;
  size_t n;
};

class SelectAlgorithmTest
    : public ::testing::TestWithParam<std::tuple<SelectAlgorithm,
                                                 Distribution, size_t>> {};

TEST_P(SelectAlgorithmTest, MatchesSortAtEveryProbedRank) {
  auto [algorithm, distribution, n] = GetParam();
  DatasetSpec spec;
  spec.n = n;
  spec.distribution = distribution;
  spec.seed = 42 + n;
  std::vector<uint64_t> data = GenerateDataset<uint64_t>(spec);
  std::vector<uint64_t> sorted = data;
  std::sort(sorted.begin(), sorted.end());

  Xoshiro256 rng(7);
  // Probe a spread of ranks including the extremes.
  std::vector<size_t> ranks{0, n - 1, n / 2, n / 4, 3 * n / 4, 1, n - 2};
  for (size_t k : ranks) {
    if (k >= n) continue;
    std::vector<uint64_t> work = data;
    uint64_t got = SelectKth(work.data(), work.size(), k, algorithm, rng);
    ASSERT_EQ(got, sorted[k])
        << SelectAlgorithmName(algorithm) << " rank " << k << " on "
        << DistributionName(distribution);
    // nth_element postcondition: prefix <= pivot <= suffix.
    for (size_t i = 0; i < k; ++i) ASSERT_LE(work[i], work[k]);
    for (size_t i = k + 1; i < n; ++i) ASSERT_GE(work[i], work[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllShapes, SelectAlgorithmTest,
    ::testing::Combine(
        ::testing::Values(SelectAlgorithm::kStdNthElement,
                          SelectAlgorithm::kMedianOfMedians,
                          SelectAlgorithm::kFloydRivest,
                          SelectAlgorithm::kIntroSelect),
        ::testing::Values(Distribution::kUniform, Distribution::kZipf,
                          Distribution::kSequential,
                          Distribution::kReverseSequential,
                          Distribution::kConstant, Distribution::kSawtooth),
        ::testing::Values(size_t{10}, size_t{100}, size_t{1000},
                          size_t{10000})),
    [](const auto& info) {
      std::string name = SelectAlgorithmName(std::get<0>(info.param));
      for (char& ch : name) {
        if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_" + DistributionName(std::get<1>(info.param)) + "_" +
             std::to_string(std::get<2>(info.param));
    });

TEST(SelectionTest, SingleElement) {
  Xoshiro256 rng(1);
  for (SelectAlgorithm a :
       {SelectAlgorithm::kStdNthElement, SelectAlgorithm::kMedianOfMedians,
        SelectAlgorithm::kFloydRivest, SelectAlgorithm::kIntroSelect}) {
    std::vector<int> v{42};
    EXPECT_EQ(SelectKth(v.data(), 1, 0, a, rng), 42);
  }
}

TEST(SelectionTest, TwoElements) {
  Xoshiro256 rng(1);
  for (SelectAlgorithm a :
       {SelectAlgorithm::kMedianOfMedians, SelectAlgorithm::kFloydRivest,
        SelectAlgorithm::kIntroSelect}) {
    std::vector<int> v{9, 3};
    EXPECT_EQ(SelectKth(v.data(), 2, 0, a, rng), 3);
    v = {9, 3};
    EXPECT_EQ(SelectKth(v.data(), 2, 1, a, rng), 9);
  }
}

TEST(SelectionTest, WorksOnDoubles) {
  Xoshiro256 rng(3);
  std::vector<double> v{3.5, -1.25, 0.0, 99.9, 2.5};
  EXPECT_DOUBLE_EQ(
      SelectKth(v.data(), v.size(), 2, SelectAlgorithm::kFloydRivest, rng),
      2.5);
}

TEST(SelectionTest, MedianOfMediansIsFullyDeterministic) {
  // Same input => same rearrangement, independent of any RNG state.
  DatasetSpec spec;
  spec.n = 4096;
  auto data = GenerateDataset<uint64_t>(spec);
  std::vector<uint64_t> a = data, b = data;
  MedianOfMediansSelect(a.data(), a.size(), 1000);
  MedianOfMediansSelect(b.data(), b.size(), 1000);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------------ MultiSelect --

TEST(MultiSelectTest, SelectsArbitraryRankSet) {
  DatasetSpec spec;
  spec.n = 5000;
  spec.distribution = Distribution::kUniform;
  auto data = GenerateDataset<uint64_t>(spec);
  std::vector<uint64_t> sorted = data;
  std::sort(sorted.begin(), sorted.end());

  std::vector<uint64_t> ranks{0, 17, 555, 2500, 4999};
  Xoshiro256 rng(5);
  std::vector<uint64_t> work = data;
  auto got = MultiSelect(work.data(), work.size(), ranks,
                         SelectAlgorithm::kIntroSelect, rng);
  ASSERT_EQ(got.size(), ranks.size());
  for (size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(got[i], sorted[ranks[i]]);
  }
}

TEST(MultiSelectTest, EmptyRankSet) {
  std::vector<uint64_t> data{3, 1, 2};
  Xoshiro256 rng(1);
  auto got = MultiSelect(data.data(), data.size(), {},
                         SelectAlgorithm::kIntroSelect, rng);
  EXPECT_TRUE(got.empty());
}

TEST(MultiSelectTest, AllRanks) {
  // Selecting every rank is a full sort.
  std::vector<uint64_t> data{5, 2, 9, 1, 7};
  std::vector<uint64_t> ranks{0, 1, 2, 3, 4};
  Xoshiro256 rng(2);
  auto got = MultiSelect(data.data(), data.size(), ranks,
                         SelectAlgorithm::kMedianOfMedians, rng);
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 2, 5, 7, 9}));
}

class RegularSamplesTest
    : public ::testing::TestWithParam<std::tuple<SelectAlgorithm,
                                                 Distribution>> {};

TEST_P(RegularSamplesTest, MatchesSortingBaselineExactly) {
  auto [algorithm, distribution] = GetParam();
  DatasetSpec spec;
  spec.n = 8192;
  spec.distribution = distribution;
  auto data = GenerateDataset<uint64_t>(spec);

  constexpr uint64_t kS = 64;
  Xoshiro256 rng(11);
  std::vector<uint64_t> work = data;
  auto fast = RegularSamples(work.data(), work.size(), kS, algorithm, rng);

  std::vector<uint64_t> baseline_input = data;
  auto slow = RegularSamplesBySorting(baseline_input.data(),
                                      baseline_input.size(),
                                      spec.n / kS);
  // The sample at each regular rank is a fixed order statistic: every
  // algorithm must produce the identical value list.
  EXPECT_EQ(fast, slow);
  EXPECT_EQ(fast.size(), kS);
  EXPECT_TRUE(std::is_sorted(fast.begin(), fast.end()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegularSamplesTest,
    ::testing::Combine(
        ::testing::Values(SelectAlgorithm::kStdNthElement,
                          SelectAlgorithm::kMedianOfMedians,
                          SelectAlgorithm::kFloydRivest,
                          SelectAlgorithm::kIntroSelect),
        ::testing::Values(Distribution::kUniform, Distribution::kZipf,
                          Distribution::kConstant,
                          Distribution::kSequential)),
    [](const auto& info) {
      std::string name = SelectAlgorithmName(std::get<0>(info.param));
      for (char& ch : name) {
        if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + std::string("_") +
             DistributionName(std::get<1>(info.param));
    });

// ------------------------------------------ Distribution-step selection --
//
// Windows of at least kDistributeMinElements take the sample-sort
// distribution step. Its output must equal sort-then-pick on every input
// shape, key type and in-bucket selector, and the work buffer must come back
// a permutation of the input with each sample at its own rank.

enum class Shape {
  kUniform,
  kZipf,
  kSequential,
  kReversed,
  kOrganPipe,
  kAllEqual,
  kTwoValued,
  kOneKey90,
  // Every sampled splitter is equal: one key everywhere except three
  // smaller and three larger outliers.
  kSplitterCollision,
  // Distinct ascending keys, then one key filling the second half: striped,
  // the heavy key's equality bucket is empty in the leading stripes.
  kHeavySecondHalf,
};
constexpr Shape kAllShapes[] = {
    Shape::kUniform,          Shape::kZipf,     Shape::kSequential,
    Shape::kReversed,         Shape::kOrganPipe, Shape::kAllEqual,
    Shape::kTwoValued,        Shape::kOneKey90, Shape::kSplitterCollision,
    Shape::kHeavySecondHalf};
constexpr SelectAlgorithm kAllAlgorithms[] = {
    SelectAlgorithm::kStdNthElement, SelectAlgorithm::kMedianOfMedians,
    SelectAlgorithm::kFloydRivest, SelectAlgorithm::kIntroSelect};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kUniform: return "uniform";
    case Shape::kZipf: return "zipf";
    case Shape::kSequential: return "sequential";
    case Shape::kReversed: return "reversed";
    case Shape::kOrganPipe: return "organ-pipe";
    case Shape::kAllEqual: return "all-equal";
    case Shape::kTwoValued: return "two-valued";
    case Shape::kOneKey90: return "90%-one-key";
    case Shape::kSplitterCollision: return "splitter-collision";
    case Shape::kHeavySecondHalf: return "heavy-second-half";
  }
  return "unknown";
}

// Small integers as keys of type K; signed and floating keys go negative.
template <typename K>
K SmallKey(int64_t v) {
  if constexpr (std::is_unsigned_v<K>) {
    return static_cast<K>(v + (int64_t{1} << 30));
  } else {
    return static_cast<K>(v);
  }
}

template <typename K>
std::vector<K> MakeShape(Shape shape, size_t n, uint64_t seed) {
  DatasetSpec spec;
  spec.n = n;
  spec.seed = seed;
  switch (shape) {
    case Shape::kUniform:
    case Shape::kZipf:
    case Shape::kSequential:
    case Shape::kReversed:
    case Shape::kAllEqual:
      spec.distribution =
          shape == Shape::kUniform      ? Distribution::kUniform
          : shape == Shape::kZipf       ? Distribution::kZipf
          : shape == Shape::kSequential ? Distribution::kSequential
          : shape == Shape::kReversed   ? Distribution::kReverseSequential
                                        : Distribution::kConstant;
      return GenerateDataset<K>(spec);
    default:
      break;
  }
  Xoshiro256 rng(seed);
  std::vector<K> out(n);
  const int64_t half = static_cast<int64_t>(n / 2);
  for (size_t i = 0; i < n; ++i) {
    const int64_t at = static_cast<int64_t>(i);
    switch (shape) {
      case Shape::kOrganPipe:
        out[i] = SmallKey<K>((at < half ? at : 2 * half - at) - half / 2);
        break;
      case Shape::kTwoValued:
        out[i] = SmallKey<K>(rng.NextBounded(2) == 0 ? -7 : 7);
        break;
      case Shape::kOneKey90:
        out[i] = SmallKey<K>(rng.NextBounded(10) == 0
                                 ? static_cast<int64_t>(rng.NextBounded(1000)) -
                                       500
                                 : 3);
        break;
      case Shape::kHeavySecondHalf:
        out[i] = SmallKey<K>(at < half ? at - half : 0);
        break;
      default:  // kSplitterCollision
        out[i] = SmallKey<K>(0);
        break;
    }
  }
  if (shape == Shape::kSplitterCollision) {
    for (int64_t j = 1; j <= 3; ++j) {
      out[rng.NextBounded(n)] = SmallKey<K>(-j);
      out[rng.NextBounded(n)] = SmallKey<K>(j);
    }
  }
  return out;
}

// Order-insensitive fingerprint of a multiset of keys (by bit pattern).
template <typename K>
std::pair<uint64_t, uint64_t> MultisetFingerprint(const std::vector<K>& keys) {
  uint64_t sum = 0, mixed_xor = 0;
  for (const K& key : keys) {
    uint64_t bits = 0;
    std::memcpy(&bits, &key, sizeof(K));
    sum += SplitMix64(bits).Next();
    mixed_xor ^= SplitMix64(bits ^ 0x5bd1e995u).Next();
  }
  return {sum, mixed_xor};
}

// Sort-then-pick: the regular samples every path must return.
template <typename K>
std::vector<K> SortedSamples(const std::vector<K>& input, uint64_t c) {
  std::vector<K> sorted = input;
  return RegularSamplesBySorting(sorted.data(), sorted.size(), c);
}

// Regular-samples `input` with sub-run size `c` on `workers` workers and
// checks the result against `expected` (sort-then-pick) and that the work
// buffer is still a permutation of the input. Below kDistributeMinElements
// it also checks the recursive path's placement: each sample at its own
// rank.
template <typename K>
void CheckRegularSamples(const std::vector<K>& input,
                         const std::vector<K>& expected, uint64_t c,
                         size_t workers, SelectAlgorithm algorithm,
                         const std::string& what) {
  SCOPED_TRACE(what + " n=" + std::to_string(input.size()) + " workers=" +
               std::to_string(workers) + " selector=" +
               SelectAlgorithmName(algorithm));
  std::vector<K> work = input;
  Xoshiro256 rng(input.size() + workers);
  SelectScratch<K> scratch;
  const std::vector<K> fast = RegularSamplesBySubrunSize(
      work.data(), work.size(), c, algorithm, rng, &scratch, workers);
  ASSERT_EQ(fast, expected);

  const size_t n = work.size();
  if (n < internal_select::kDistributeMinElements) {
    // Each sample sits at its rank, with nothing larger before it and
    // nothing smaller after it.
    std::vector<K> suffix_min(work);
    for (size_t i = n - 1; i-- > 0;) {
      suffix_min[i] = std::min(suffix_min[i], suffix_min[i + 1]);
    }
    K prefix_max = work[0];
    size_t next = 0;
    for (size_t i = 0; i < n && next < fast.size(); ++i) {
      if (i == (next + 1) * c - 1) {
        ASSERT_EQ(work[i], fast[next]) << "sample " << next;
        ASSERT_FALSE(fast[next] < prefix_max) << "sample " << next;
        ASSERT_FALSE(suffix_min[i] < fast[next]) << "sample " << next;
        ++next;
      }
      prefix_max = std::max(prefix_max, work[i]);
    }
  }
  if (n <= (size_t{1} << 17)) {
    std::vector<K> sorted = input;
    std::sort(sorted.begin(), sorted.end());
    std::sort(work.begin(), work.end());
    ASSERT_EQ(work, sorted) << "work buffer is not a permutation of the input";
  } else {
    ASSERT_EQ(MultisetFingerprint(work), MultisetFingerprint(input))
        << "work buffer is not a permutation of the input";
  }
}

template <typename K>
class DistributeSelectTest : public ::testing::Test {};
using KeyTypes = ::testing::Types<uint32_t, uint64_t, int64_t, double>;
TYPED_TEST_SUITE(DistributeSelectTest, KeyTypes);

TYPED_TEST(DistributeSelectTest, MatchesSortingAroundThreshold) {
  using K = TypeParam;
  constexpr size_t kT = internal_select::kDistributeMinElements;
  constexpr uint64_t kC = 64;
  // Both sides of the threshold, and a ragged tail (not a multiple of c).
  const size_t sizes[] = {kT - 1, kT, kT + 1, 2 * kT + kC / 2 + 3};
  size_t case_index = 0;
  for (Shape shape : kAllShapes) {
    for (size_t n : sizes) {
      const std::vector<K> input = MakeShape<K>(shape, n, 1000 + n);
      const std::vector<K> expected = SortedSamples(input, kC);
      // uint64_t keys cross every selector; the other types rotate through
      // them so each type still meets all four.
      for (SelectAlgorithm algorithm : kAllAlgorithms) {
        if (!std::is_same_v<K, uint64_t> &&
            algorithm != kAllAlgorithms[case_index % 4]) {
          continue;
        }
        CheckRegularSamples(input, expected, kC, 1, algorithm,
                            ShapeName(shape));
        if (this->HasFatalFailure()) return;
      }
      ++case_index;
    }
  }
}

TYPED_TEST(DistributeSelectTest, MatchesSortingOnFullRun) {
  using K = TypeParam;
  constexpr size_t kM = size_t{1} << 20;
  size_t case_index = 0;
  for (Shape shape : kAllShapes) {
    // A 2^20 run of every shape for 64-bit keys, a few shapes for the rest.
    if (sizeof(K) < 8 && shape != Shape::kUniform && shape != Shape::kZipf &&
        shape != Shape::kTwoValued) {
      continue;
    }
    const std::vector<K> input = MakeShape<K>(shape, kM, 7);
    CheckRegularSamples(input, SortedSamples(input, kM / 1024), kM / 1024, 1,
                        kAllAlgorithms[case_index++ % 4], ShapeName(shape));
    if (this->HasFatalFailure()) return;
  }
}

TEST(DistributeSelectTest2, ArbitraryRanks) {
  // A few scattered ranks over a large window, on one and on three workers.
  const std::vector<uint64_t> input = MakeShape<uint64_t>(
      Shape::kZipf, 3 * internal_select::kDistributeMinElements, 5);
  std::vector<uint64_t> sorted = input;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<uint64_t> ranks{0, 17, 65535, 65536, 100000,
                                    input.size() - 1};
  for (size_t workers : {size_t{1}, size_t{3}}) {
    Xoshiro256 rng(5);
    SelectScratch<uint64_t> scratch;
    std::vector<uint64_t> work = input;
    const std::vector<uint64_t> got =
        MultiSelect(work.data(), work.size(), ranks,
                    SelectAlgorithm::kIntroSelect, rng, &scratch, workers);
    for (size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ(got[i], sorted[ranks[i]]) << "workers " << workers;
    }
  }
}

// --------------------------------------------------------- Slab kernel --
//
// The distribution step classifies and scatters the run slab by slab on
// any number of workers, then gathers each target bucket's pieces from
// every slab. The samples must equal sort-then-pick for every worker
// count, on runs that end just before, on and just after a slab boundary,
// and the run must come back a permutation of its input.

constexpr size_t kWorkerCounts[] = {1, 2, 3, 4, 7};

TYPED_TEST(DistributeSelectTest, StripedStepMatchesSorting) {
  using K = TypeParam;
  constexpr size_t kS = internal_select::kSlab;
  constexpr size_t kT = internal_select::kDistributeMinElements;
  constexpr uint64_t kC = 512;
  // Slab boundaries on runs that every worker count splits (32 slabs is
  // at least 7 x kT), a ragged last slab, a full run, and each worker
  // count's own threshold from both sides (one below it takes one worker).
  struct Case {
    size_t n;
    size_t workers;  // 0: every worker count
  };
  std::vector<Case> cases = {{32 * kS - 1, 0},
                             {32 * kS, 0},
                             {32 * kS + 1, 0},
                             {37 * kS + kC / 2 + 3, 0},
                             {size_t{1} << 20, 0}};
  for (size_t workers : kWorkerCounts) {
    if (workers == 1) continue;
    cases.push_back({workers * kT - 1, workers});
    cases.push_back({workers * kT, workers});
  }
  size_t case_index = 0;
  for (Shape shape : kAllShapes) {
    for (const Case& c : cases) {
      const std::vector<K> input = MakeShape<K>(shape, c.n, 31 + c.n);
      const std::vector<K> expected = SortedSamples(input, kC);
      for (size_t workers : kWorkerCounts) {
        if (c.workers != 0 && c.workers != workers) continue;
        CheckRegularSamples(input, expected, kC, workers,
                            kAllAlgorithms[case_index++ % 4],
                            ShapeName(shape));
        if (this->HasFatalFailure()) return;
      }
    }
  }
}

TEST(DistributeSelectTest2, ScratchIsReusedAcrossRuns) {
  // One scratch serves runs of every size and worker count, with and
  // without equality buckets. It holds a slab buffer and a slab of oracle
  // bytes per worker plus each slab's bucket bounds, and stays under the
  // one byte per element of the largest run.
  constexpr size_t kM = size_t{1} << 20;
  SelectScratch<uint64_t> scratch;
  Xoshiro256 rng(11);
  const std::tuple<Shape, size_t, size_t> runs[] = {
      {Shape::kUniform, kM, 4},   {Shape::kZipf, kM, 2},
      {Shape::kTwoValued, kM, 1}, {Shape::kOneKey90, kM, 3},
      {Shape::kUniform, kM / 4, 4}, {Shape::kUniform, 100, 4}};
  for (const auto& [shape, n, workers] : runs) {
    SCOPED_TRACE(std::string(ShapeName(shape)) + " n=" + std::to_string(n) +
                 " workers=" + std::to_string(workers));
    std::vector<uint64_t> run = MakeShape<uint64_t>(shape, n, workers);
    EXPECT_EQ(RegularSamplesBySubrunSize(run.data(), run.size(), 50,
                                         SelectAlgorithm::kIntroSelect, rng,
                                         &scratch, workers),
              SortedSamples(run, 50));
    ASSERT_EQ(scratch.buffers.size(), 4u);
    size_t bytes = scratch.oracle.size() +
                   scratch.bounds.size() * sizeof(uint32_t);
    for (const std::vector<uint64_t>& buffer : scratch.buffers) {
      EXPECT_EQ(buffer.size(), internal_select::kSlab);
      bytes += buffer.size() * sizeof(uint64_t);
    }
    EXPECT_EQ(scratch.oracle.size(), 4 * internal_select::kSlab);
    EXPECT_LE(bytes, kM);
  }
}

// ------------------------------------------------------------ Worker pool --

TEST(WorkerPoolTest, RunsEverySliceOnce) {
  for (size_t helpers : {size_t{0}, size_t{1}, size_t{3}}) {
    WorkerPool pool(helpers);
    for (size_t slices : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                          size_t{1000}}) {
      std::vector<std::atomic<int>> hits(slices);
      pool.ParallelFor(slices, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < slices; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "helpers=" << helpers
                                     << " slices=" << slices << " i=" << i;
      }
    }
  }
}

TEST(WorkerPoolTest, ConcurrentCallersAllFinish) {
  // More callers than helpers, each with more slices than helpers, and
  // slices that call back into the pool: nobody waits on an unclaimed
  // slice, so every job finishes.
  WorkerPool pool(2);
  constexpr size_t kCallers = 5;
  std::vector<uint64_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 50; ++round) {
        std::vector<uint64_t> parts(6, 0);
        pool.ParallelFor(parts.size(), [&](size_t i) {
          std::atomic<uint64_t> inner{0};
          pool.ParallelFor(3, [&](size_t j) { inner.fetch_add(i + j); });
          parts[i] = inner.load();
        });
        sums[c] += std::accumulate(parts.begin(), parts.end(), uint64_t{0});
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  // Slice i adds 3i + 3 per round: 6 slices give 63 per round.
  for (uint64_t sum : sums) EXPECT_EQ(sum, 50u * 63u);
}

TEST(WorkerPoolTest, SharedPoolLeavesOneCoreToTheCaller) {
  EXPECT_EQ(WorkerPool::Shared().helpers() + 1, WorkerPool::HardwareWidth());
}

TEST(RegularSamplesTest2, SubrunCoverageProperties) {
  // Paper Appendix A, property 1: the j-th sample has >= j*c elements <= it.
  DatasetSpec spec;
  spec.n = 1000;
  spec.distribution = Distribution::kZipf;
  auto data = GenerateDataset<uint64_t>(spec);
  std::vector<uint64_t> sorted = data;
  std::sort(sorted.begin(), sorted.end());

  constexpr uint64_t kC = 25;  // sub-run size
  Xoshiro256 rng(3);
  std::vector<uint64_t> work = data;
  auto samples = RegularSamplesBySubrunSize(work.data(), work.size(), kC,
                                            SelectAlgorithm::kIntroSelect,
                                            rng);
  ASSERT_EQ(samples.size(), spec.n / kC);
  for (size_t j = 1; j <= samples.size(); ++j) {
    uint64_t count_le = static_cast<uint64_t>(
        std::upper_bound(sorted.begin(), sorted.end(), samples[j - 1]) -
        sorted.begin());
    EXPECT_GE(count_le, j * kC);
  }
}

TEST(RegularSamplesTest2, TailRunProducesFloorSamples) {
  std::vector<uint64_t> run(103);
  std::iota(run.begin(), run.end(), 0);
  Xoshiro256 rng(4);
  auto samples = RegularSamplesBySubrunSize(run.data(), run.size(), 10,
                                            SelectAlgorithm::kIntroSelect,
                                            rng);
  // floor(103/10) = 10 samples at ranks 10,20,...,100 => values 9,19,...,99.
  ASSERT_EQ(samples.size(), 10u);
  for (size_t j = 0; j < samples.size(); ++j) {
    EXPECT_EQ(samples[j], 10 * (j + 1) - 1);
  }
}

TEST(RegularSamplesTest2, SampleCountEqualsSIncludesMax) {
  // With s | m, the last sample is the run maximum (rank m).
  std::vector<uint64_t> run(64);
  std::iota(run.begin(), run.end(), 100);
  Xoshiro256 rng(5);
  auto samples = RegularSamples(run.data(), run.size(), 8,
                                SelectAlgorithm::kFloydRivest, rng);
  ASSERT_EQ(samples.size(), 8u);
  EXPECT_EQ(samples.back(), 163u);  // max element
}

}  // namespace
}  // namespace opaq
