// Micro-benchmarks (google-benchmark) for end-to-end estimator throughput:
// OPAQ's sample phase vs the streaming baselines, elements/second; plus the
// §4 exact pass over in-memory runs, the CRC-32 kernels and the delta-codec
// decoder.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "baselines/as95_histogram.h"
#include "baselines/gk.h"
#include "baselines/kll.h"
#include "baselines/munro_paterson.h"
#include "baselines/p2.h"
#include "baselines/reservoir_sample.h"
#include "core/exact.h"
#include "core/opaq.h"
#include "data/dataset.h"
#include "io/codec.h"
#include "io/run_reader.h"
#include "parallel/worker_pool.h"
#include "util/crc32.h"
#include "util/random.h"

namespace opaq {
namespace {

constexpr size_t kN = 1 << 21;  // ~2M keys

const std::vector<uint64_t>& BenchData() {
  static const std::vector<uint64_t>& data = *new std::vector<uint64_t>([] {
    DatasetSpec spec;
    spec.n = kN;
    spec.distribution = Distribution::kUniform;
    spec.seed = 5;
    return GenerateDataset<uint64_t>(spec);
  }());
  return data;
}

void BM_OpaqSketch(benchmark::State& state) {
  const auto& data = BenchData();
  OpaqConfig config;
  config.run_size = 1 << 17;
  config.samples_per_run = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);
    benchmark::DoNotOptimize(est.Quantile(0.5));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kN));
}
BENCHMARK(BM_OpaqSketch)->ArgName("s")->Arg(256)->Arg(1024)->Arg(4096);

template <typename Estimator>
void StreamAll(Estimator& estimator, benchmark::State& state) {
  const auto& data = BenchData();
  for (auto _ : state) {
    for (uint64_t v : data) estimator.Add(v);
    benchmark::DoNotOptimize(estimator.EstimateQuantile(0.5));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kN));
}

void BM_Reservoir(benchmark::State& state) {
  ReservoirSampleEstimator<uint64_t> e(4096, 1);
  StreamAll(e, state);
}
BENCHMARK(BM_Reservoir);

void BM_As95Histogram(benchmark::State& state) {
  As95HistogramEstimator<uint64_t> e(4096);
  StreamAll(e, state);
}
BENCHMARK(BM_As95Histogram);

void BM_P2Dectiles(benchmark::State& state) {
  P2Estimator<uint64_t> e({0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
  StreamAll(e, state);
}
BENCHMARK(BM_P2Dectiles);

void BM_MunroPaterson(benchmark::State& state) {
  MunroPatersonEstimator<uint64_t> e(4096);
  StreamAll(e, state);
}
BENCHMARK(BM_MunroPaterson);

void BM_GreenwaldKhanna(benchmark::State& state) {
  GkEstimator<uint64_t> e(0.001);
  StreamAll(e, state);
}
BENCHMARK(BM_GreenwaldKhanna);

void BM_Kll(benchmark::State& state) {
  KllEstimator<uint64_t> e(1024, 1);
  StreamAll(e, state);
}
BENCHMARK(BM_Kll);

// The §4 exact pass over 2^22 in-memory zipf keys (runs of 2^20, s = 1024)
// for the certified brackets of q equi-spaced quantiles, at 1 worker and at
// every core. The scan classifies each key once against all bracket
// endpoints, so the rate should fall only with log q. Times are wall-clock:
// the pool's helpers do most of the work at full width.
void BM_ExactPass(benchmark::State& state) {
  constexpr size_t kExactN = size_t{1} << 22;
  DatasetSpec spec;
  spec.n = kExactN;
  spec.distribution = Distribution::kZipf;
  spec.seed = 7;
  const MemoryRunProvider<uint64_t> provider(GenerateDataset<uint64_t>(spec));
  OpaqConfig config;
  config.run_size = 1 << 20;
  config.samples_per_run = 1024;
  const OpaqEstimator<uint64_t> estimator =
      EstimateQuantilesInMemory(provider.data(), config);
  std::vector<QuantileEstimate<uint64_t>> estimates;
  for (const auto& e :
       estimator.EquiQuantiles(static_cast<int>(state.range(0)))) {
    if (!e.lower_clamped && !e.upper_clamped) estimates.push_back(e);
  }
  // The body of ExactQuantilesSecondPass, at `workers` wide.
  const size_t workers = static_cast<size_t>(state.range(1));
  const uint64_t budget = internal_exact::DefaultExactBudget(estimates);
  for (auto _ : state) {
    internal_exact::BracketAccumulator<uint64_t> acc(estimates.size());
    OPAQ_CHECK_OK(internal_exact::AccumulateBrackets(
        provider, estimates, config.read_options(), budget, &acc,
        /*shared_held=*/nullptr, workers));
    auto exact = internal_exact::SelectWithinBrackets(estimates, &acc, workers);
    OPAQ_CHECK_OK(exact.status());
    benchmark::DoNotOptimize(exact->data());
  }
  state.counters["brackets"] = static_cast<double>(estimates.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kExactN));
}
BENCHMARK(BM_ExactPass)
    ->ArgNames({"q", "workers"})
    ->ArgsProduct({{2, 100, 1000},
                   {1, static_cast<int64_t>(WorkerPool::HardwareWidth())}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// CRC-32 over one buffer of range(0) bytes: 64 B is a small serve-live
// frame, 1 MiB a batch of extents or a range of plain elements. BM_Crc32 is
// the dispatched kernel (its label names it); BM_Crc32SlicingBy8 the table
// kernel alone, the fallback on CPUs without PCLMULQDQ.
template <uint32_t (*kCrc)(const void*, size_t)>
void CrcBench(benchmark::State& state) {
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)));
  Xoshiro256 rng(9);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kCrc(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
void BM_Crc32(benchmark::State& state) {
  state.SetLabel(internal_crc32::Crc32KernelName());
  CrcBench<Crc32>(state);
}
void BM_Crc32SlicingBy8(benchmark::State& state) {
  CrcBench<internal_crc32::SlicingBy8Crc32>(state);
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);
BENCHMARK(BM_Crc32SlicingBy8)
    ->Arg(64)
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(1 << 20);

// Delta-codec decode of one 64Ki-element extent, the unpack step of every
// delta-compressed read. Arg 0: sorted uniform keys, 1: zipf, 2: uniform.
// Bytes processed are unpacked bytes.
template <typename K>
void BM_DeltaDecode(benchmark::State& state) {
  static const char* const kNames[] = {"sorted", "zipf", "uniform"};
  DatasetSpec spec;
  spec.n = 64 << 10;
  spec.seed = 11;
  spec.distribution =
      state.range(0) == 1 ? Distribution::kZipf : Distribution::kUniform;
  std::vector<K> keys = GenerateDataset<K>(spec);
  if (state.range(0) == 0) std::sort(keys.begin(), keys.end());
  const Codec* codec = GetCodec(ExtentCodec::kDelta);
  const auto* raw = reinterpret_cast<const uint8_t*>(keys.data());
  const size_t raw_len = keys.size() * sizeof(K);
  std::vector<uint8_t> packed;
  OPAQ_CHECK_OK(codec->Compress(raw, raw_len, sizeof(K), &packed));
  std::vector<uint8_t> out(raw_len);
  for (auto _ : state) {
    const Status s = codec->Decompress(packed.data(), packed.size(),
                                       sizeof(K), out.data(), out.size());
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(kNames[state.range(0)]);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(raw_len));
  state.counters["packed_bytes_per_key"] =
      static_cast<double>(packed.size()) / static_cast<double>(keys.size());
}
BENCHMARK_TEMPLATE(BM_DeltaDecode, uint32_t)->DenseRange(0, 2);
BENCHMARK_TEMPLATE(BM_DeltaDecode, uint64_t)->DenseRange(0, 2);

}  // namespace
}  // namespace opaq

BENCHMARK_MAIN();
