#include <algorithm>
#include <cstring>
#include <functional>

#include "data/dataset.h"
#include "io/codec.h"
#include "perfbench/workloads.h"
#include "select/multi_select.h"
#include "util/crc32.h"
#include "util/random.h"

namespace opaq {
namespace perfbench {

OpaqConfig BenchConfig(const RunConfig& config) {
  OpaqConfig out;
  out.run_size = config.tiny ? (1u << 16) : (1u << 20);
  out.samples_per_run = 1024;
  out.io_mode = IoMode::kAsync;
  return out;
}

std::vector<QueryRequest<Key>> MixedBatch(uint64_t index, uint64_t n) {
  using Request = QueryRequest<Key>;
  std::vector<Request> batch;
  batch.reserve(8);
  for (uint64_t i = 0; i < 8; ++i) {
    const uint64_t salt = index * 1315423911u + i;
    switch (salt % 3) {
      case 0:
        batch.push_back(
            Request::Quantile(static_cast<double>(salt % 997 + 1) / 998.0));
        break;
      case 1:
        batch.push_back(Request::RankOf(salt * 2654435761u));
        break;
      default:
        batch.push_back(Request::QuantileByRank(salt % n + 1));
        break;
    }
  }
  return batch;
}

Key TruthAt(const std::vector<Key>& sorted, uint64_t rank) {
  OPAQ_CHECK(rank >= 1 && rank <= sorted.size());
  return sorted[rank - 1];
}

void CheckCertified(const std::vector<QuantileEstimate<Key>>& estimates,
                    const std::vector<Key>& sorted, const char* what,
                    Report* report) {
  for (const QuantileEstimate<Key>& estimate : estimates) {
    const Key truth = TruthAt(sorted, estimate.target_rank);
    if ((!estimate.lower_clamped && estimate.lower > truth) ||
        (!estimate.upper_clamped && estimate.upper < truth)) {
      report->Fail(Format("%s: bracket [%llu, %llu] misses the true element "
                          "%llu of rank %llu",
                          what,
                          static_cast<unsigned long long>(estimate.lower),
                          static_cast<unsigned long long>(estimate.upper),
                          static_cast<unsigned long long>(truth),
                          static_cast<unsigned long long>(
                              estimate.target_rank)));
      return;
    }
  }
}

Result<std::vector<Key>> Truths(const QuerySession<Key>& session,
                                std::vector<QueryRequest<Key>> batch,
                                const std::vector<Key>& sorted) {
  for (QueryRequest<Key>& request : batch) request.exact = false;
  auto answers = session.Query(batch);
  if (!answers.ok()) return answers.status();
  std::vector<Key> truths;
  for (const QueryResult<Key>& result : answers->results) {
    for (const QuantileEstimate<Key>& estimate : result.estimates) {
      truths.push_back(TruthAt(sorted, estimate.target_rank));
    }
  }
  return truths;
}

std::vector<Key> ExactValues(const QueryResults<Key>& answers) {
  std::vector<Key> values;
  for (const QueryResult<Key>& result : answers.results) {
    values.insert(values.end(), result.exact.begin(), result.exact.end());
  }
  return values;
}

void ReportStages(const StageTotals& stages, double ops, Report* report) {
  report->SetLayer("select.sample_ms", stages.Ms(TraceStage::kSample) / ops);
  report->SetLayer("select.runs",
                   static_cast<double>(stages.Count(TraceStage::kSample)) /
                       ops);
  report->SetLayer("core.merge_ms", stages.Ms(TraceStage::kMerge) / ops);
  report->SetLayer("core.merges",
                   static_cast<double>(stages.Count(TraceStage::kMerge)) /
                       ops);
  report->SetLayer("io.extent_decode_ms",
                   stages.Ms(TraceStage::kExtentDecode) / ops);
  report->SetLayer("net.wire_send_ms", stages.Ms(TraceStage::kWireSend) / ops);
  report->SetLayer("net.wire_recv_ms", stages.Ms(TraceStage::kWireRecv) / ops);
}

void ReportPacking(const ExtentStatsSnapshot& packs, double ops,
                   Report* report) {
  report->SetLayer("io.extents_decoded",
                   static_cast<double>(packs.extents) / ops);
  report->SetLayer("io.packed_bytes",
                   static_cast<double>(packs.packed_bytes) / ops);
  report->SetLayer("io.unpacked_bytes",
                   static_cast<double>(packs.unpacked_bytes) / ops);
  report->SetLayer("io.pack_ratio",
                   packs.unpacked_bytes == 0
                       ? 1.0
                       : static_cast<double>(packs.packed_bytes) /
                             static_cast<double>(packs.unpacked_bytes));
}

void ProbeSession(const QuerySession<Key>& session, Report* report) {
  constexpr uint64_t kBatches = 2000;
  const uint64_t n = session.total_elements();
  std::vector<double> micros;
  micros.reserve(kBatches);
  for (uint64_t i = 0; i < kBatches; ++i) {
    const std::vector<QueryRequest<Key>> batch = MixedBatch(i, n);
    const double start = NowSeconds();
    auto answers = session.Query(batch);
    micros.push_back((NowSeconds() - start) * 1e6);
    if (!answers.ok()) {
      report->Fail("local estimate probe: " + answers.status().ToString());
      return;
    }
  }
  report->SetLayer("core.estimate_us", Median(micros));

  auto tails = session.Query({QueryRequest<Key>::Quantile(0.0001),
                              QueryRequest<Key>::Quantile(0.9999)});
  if (!tails.ok()) {
    report->Fail("tail estimate probe: " + tails.status().ToString());
    return;
  }
  uint64_t clamped = 0;
  for (const QueryResult<Key>& result : tails->results) {
    for (const QuantileEstimate<Key>& estimate : result.estimates) {
      clamped += (estimate.lower_clamped ? 1 : 0) +
                 (estimate.upper_clamped ? 1 : 0);
    }
  }
  report->SetLayer("core.tail_clamped_bounds", static_cast<double>(clamped));
}

namespace {

// Median seconds of `reps` calls of `body`; `prepare` runs untimed before
// each call.
template <typename Prepare, typename Body>
double MedianSeconds(int reps, Prepare prepare, Body body) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    prepare();
    const double start = NowSeconds();
    body();
    seconds.push_back(NowSeconds() - start);
  }
  return Median(seconds);
}

}  // namespace

void MeasureKernels(const RunConfig& config, Report* report) {
  const int reps = config.tiny ? 3 : 15;
  Xoshiro256 rng(config.seed);

  // Selection: one full run, s = 1024 regular samples.
  constexpr size_t kRun = 1u << 20;
  std::vector<Key> run(kRun);
  for (Key& key : run) key = rng.Next() >> 1;
  std::vector<Key> scratch;
  size_t samples = 0;
  const double select_s = MedianSeconds(
      reps, [&] { scratch = run; },
      [&] {
        samples += RegularSamplesBySubrunSize(scratch.data(), scratch.size(),
                                              kRun / 1024,
                                              SelectAlgorithm::kIntroSelect,
                                              rng)
                       .size();
      });
  OPAQ_CHECK_EQ(samples, static_cast<size_t>(reps) * 1024);
  report->SetLayer("select.kernel_melem_s",
                   static_cast<double>(kRun) / select_s / 1e6);

  // CRC-32 over 8 MiB.
  std::vector<uint8_t> bytes(8u << 20);
  for (size_t i = 0; i < bytes.size(); i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(&bytes[i], &word, 8);
  }
  std::vector<uint32_t> crcs;
  const double crc_s = MedianSeconds(
      reps, [] {}, [&] { crcs.push_back(Crc32(bytes.data(), bytes.size())); });
  if (std::adjacent_find(crcs.begin(), crcs.end(),
                         std::not_equal_to<uint32_t>()) != crcs.end()) {
    report->Fail("crc32 kernel: one buffer gave two checksums");
  }
  report->SetLayer("util.crc32_mb_s",
                   static_cast<double>(bytes.size()) / crc_s / 1e6);

  // Delta codec: one 64Ki-element extent of zipf keys over a 20M-key
  // universe, in arrival order, as a zipf extent file stores them.
  DatasetSpec spec;
  spec.n = 64u << 10;
  spec.seed = config.seed;
  spec.distribution = Distribution::kZipf;
  spec.zipf_universe = 20000000;
  const std::vector<Key> extent = GenerateDataset<Key>(spec);
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(extent.data());
  const size_t raw_len = extent.size() * sizeof(Key);
  const Codec* codec = GetCodec(ExtentCodec::kDelta);
  std::vector<uint8_t> packed;
  OPAQ_CHECK_OK(codec->Compress(raw, raw_len, sizeof(Key), &packed));
  std::vector<uint8_t> unpacked(raw_len);
  Status decoded = Status::OK();
  const double decode_s = MedianSeconds(
      reps * 4, [] {},
      [&] {
        decoded = codec->Decompress(packed.data(), packed.size(), sizeof(Key),
                                    unpacked.data(), unpacked.size());
      });
  if (!decoded.ok() || std::memcmp(unpacked.data(), raw, raw_len) != 0) {
    report->Fail("delta codec kernel: round trip changed the extent");
  }
  report->SetLayer("io.delta_decode_mb_s",
                   static_cast<double>(raw_len) / decode_s / 1e6);
}

}  // namespace perfbench
}  // namespace opaq
