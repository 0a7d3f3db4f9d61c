// Micro-benchmarks (google-benchmark) for the selection substrate: single
// selection and regular-sample extraction across algorithms and run shapes.
// Backs the paper's §2.1 claim that randomized selection "has small
// constant and is practically very efficient" relative to the deterministic
// [ea72], guards the sample phase on duplicate-heavy runs, and measures
// how the striped distribution step scales with workers.
//
//   micro_selection --benchmark_filter=RegularSamples

#include <benchmark/benchmark.h>

#include "data/dataset.h"
#include "select/multi_select.h"
#include "select/select.h"

namespace opaq {
namespace {

std::vector<uint64_t> BenchData(size_t n) {
  DatasetSpec spec;
  spec.n = n;
  spec.distribution = Distribution::kUniform;
  spec.seed = 99;
  return GenerateDataset<uint64_t>(spec);
}

void BM_SelectMedian(benchmark::State& state) {
  const auto algorithm = static_cast<SelectAlgorithm>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<uint64_t> data = BenchData(n);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint64_t> work = data;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        SelectKth(work.data(), work.size(), n / 2, algorithm, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SelectMedian)
    ->ArgNames({"algo", "n"})
    ->Args({static_cast<int>(SelectAlgorithm::kStdNthElement), 1 << 20})
    ->Args({static_cast<int>(SelectAlgorithm::kMedianOfMedians), 1 << 20})
    ->Args({static_cast<int>(SelectAlgorithm::kFloydRivest), 1 << 20})
    ->Args({static_cast<int>(SelectAlgorithm::kIntroSelect), 1 << 20});

// Run shapes for BM_RegularSamples: uniform keys plus the duplicate-heavy
// inputs the distribution step's equality buckets exist for.
enum class RunInput { kUniform, kZipf, kAllEqual, kTwoValued };

const char* RunInputName(RunInput input) {
  switch (input) {
    case RunInput::kUniform: return "uniform";
    case RunInput::kZipf: return "zipf";
    case RunInput::kAllEqual: return "all-equal";
    case RunInput::kTwoValued: return "two-valued";
  }
  return "unknown";
}

std::vector<uint64_t> RunData(size_t n, RunInput input) {
  DatasetSpec spec;
  spec.n = n;
  spec.seed = 99;
  switch (input) {
    case RunInput::kUniform:
      return BenchData(n);
    case RunInput::kZipf:
      spec.distribution = Distribution::kZipf;
      return GenerateDataset<uint64_t>(spec);
    case RunInput::kAllEqual:
      spec.distribution = Distribution::kConstant;
      return GenerateDataset<uint64_t>(spec);
    case RunInput::kTwoValued:
      break;
  }
  Xoshiro256 rng(spec.seed);
  std::vector<uint64_t> data(n);
  for (uint64_t& key : data) key = rng.NextBounded(2) == 0 ? 17 : 42;
  return data;
}

void BM_RegularSamples(benchmark::State& state) {
  const auto algorithm = static_cast<SelectAlgorithm>(state.range(0));
  const size_t m = 1 << 20;
  const uint64_t s = static_cast<uint64_t>(state.range(1));
  const auto input = static_cast<RunInput>(state.range(2));
  const auto workers = static_cast<size_t>(state.range(3));
  const std::vector<uint64_t> data = RunData(m, input);
  Xoshiro256 rng(7);
  SelectScratch<uint64_t> scratch;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint64_t> work = data;
    state.ResumeTiming();
    benchmark::DoNotOptimize(RegularSamplesBySubrunSize(
        work.data(), work.size(), m / s, algorithm, rng, &scratch, workers));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m));
  state.SetLabel(RunInputName(input));
}
// `workers` stripes each run across the shared pool (1 = the sequential
// step). Rates are per wall-clock second, so the rows compare directly.
BENCHMARK(BM_RegularSamples)
    ->ArgNames({"algo", "s", "input", "workers"})
    ->Args({static_cast<int>(SelectAlgorithm::kFloydRivest), 256, 0, 1})
    ->Args({static_cast<int>(SelectAlgorithm::kFloydRivest), 1024, 0, 1})
    ->Args({static_cast<int>(SelectAlgorithm::kFloydRivest), 4096, 0, 1})
    ->Args({static_cast<int>(SelectAlgorithm::kMedianOfMedians), 1024, 0, 1})
    ->Args({static_cast<int>(SelectAlgorithm::kMedianOfMedians), 1024, 0, 4})
    ->Args({static_cast<int>(SelectAlgorithm::kIntroSelect), 1024, 0, 1})
    ->Args({static_cast<int>(SelectAlgorithm::kIntroSelect), 1024, 0, 2})
    ->Args({static_cast<int>(SelectAlgorithm::kIntroSelect), 1024, 0, 4})
    ->Args({static_cast<int>(SelectAlgorithm::kIntroSelect), 1024, 1, 1})
    ->Args({static_cast<int>(SelectAlgorithm::kIntroSelect), 1024, 1, 4})
    ->Args({static_cast<int>(SelectAlgorithm::kIntroSelect), 1024, 2, 1})
    ->Args({static_cast<int>(SelectAlgorithm::kIntroSelect), 1024, 2, 4})
    ->Args({static_cast<int>(SelectAlgorithm::kIntroSelect), 1024, 3, 1})
    ->Args({static_cast<int>(SelectAlgorithm::kIntroSelect), 1024, 3, 4})
    ->UseRealTime();

void BM_RegularSamplesBySorting(benchmark::State& state) {
  const size_t m = 1 << 20;
  const uint64_t s = static_cast<uint64_t>(state.range(0));
  const std::vector<uint64_t> data = BenchData(m);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint64_t> work = data;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        RegularSamplesBySorting(work.data(), work.size(), m / s));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m));
}
BENCHMARK(BM_RegularSamplesBySorting)->Arg(1024);

}  // namespace
}  // namespace opaq

BENCHMARK_MAIN();
