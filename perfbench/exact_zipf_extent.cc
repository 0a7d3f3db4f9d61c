// exact-zipf-extent: a closed loop of one client over zipf (z = 0.86) keys
// stored as delta-codec extents of 64Ki elements, read with CRC
// verification on. Each op is Engine::Build, then three exact batches:
// EquiQuantiles(2), EquiQuantiles(100) and the tail {p0.2, p99.8}. The
// extent read path (CRC and decode on the prefetch threads) and the §4
// filter scan carry the work: q = 2 isolates the scan's I/O, q = 100 the
// O(n·q) bracket filter.
//
// n is 5M rather than the 20M of scan-uniform: at 20M an op takes about
// 7 s, so a run would hold two ops and its medians would follow the
// machine's noise; at 5M a run holds enough ops for a steady median.
//
// The tail batch stops at p0.2/p99.8 because a p0.01 bracket is clamped at
// this geometry, so an exact p0.01/p99.99 batch fails with
// FAILED_PRECONDITION; `core.tail_clamped_bounds` tracks that case.

#include <algorithm>
#include <memory>

#include "data/dataset.h"
#include "io/block_device.h"
#include "io/extent.h"
#include "opaq/engine.h"
#include "perfbench/workloads.h"

namespace opaq {
namespace perfbench {

Status RunExactZipfExtent(const RunConfig& config, Report* report) {
  using Request = QueryRequest<Key>;
  const uint64_t n = config.tiny ? 1000000 : 5000000;
  const OpaqConfig opaq = BenchConfig(config);
  const std::string path = config.work_dir + "/exact-zipf-extent.opaq";

  DatasetSpec spec;
  spec.n = n;
  spec.seed = config.seed;
  spec.distribution = Distribution::kZipf;
  std::vector<Key> data = GenerateDataset<Key>(spec);
  ExtentWriterOptions writer;
  writer.extent_elements = 64u << 10;
  writer.codec = ExtentCodec::kDelta;

  // Setup: the extent file through the repo's writer, then epoch 1.
  std::vector<double> setup_s;
  std::vector<uint8_t> reference;
  std::unique_ptr<QuerySession<Key>> epoch1;
  uint64_t file_bytes = 0;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double start = NowSeconds();
    {
      auto device =
          FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
      if (!device.ok()) return device.status();
      auto written = WriteExtents<Key>(data, {device->get()}, writer);
      if (!written.ok()) return written.status();
      OPAQ_RETURN_IF_ERROR((*device)->Sync());
      file_bytes = written->packed_bytes;
    }
    auto source = Source<Key>::Open(path);
    if (!source.ok()) return source.status();
    auto session = Engine<Key>(opaq, *source).Build();
    if (!session.ok()) return session.status();
    setup_s.push_back(NowSeconds() - start);
    std::vector<uint8_t> bytes = SampleListBytes(session->sample_list());
    if (rep == 0) reference = bytes;
    if (bytes != reference) {
      report->Fail("exact-zipf-extent: setup builds differ");
    }
    epoch1 = std::make_unique<QuerySession<Key>>(std::move(session).value());
  }
  const Source<Key> source = epoch1->sources().front();

  const std::vector<Request> q2 = {Request::EquiQuantiles(2, true)};
  const std::vector<Request> q100 = {Request::EquiQuantiles(100, true)};
  const std::vector<Request> tail = {Request::Quantile(0.002, true),
                                     Request::Quantile(0.998, true)};
  std::sort(data.begin(), data.end());
  auto truth_q2 = Truths(*epoch1, q2, data);
  auto truth_q100 = Truths(*epoch1, q100, data);
  auto truth_tail = Truths(*epoch1, tail, data);
  if (!truth_q2.ok()) return truth_q2.status();
  if (!truth_q100.ok()) return truth_q100.status();
  if (!truth_tail.ok()) return truth_tail.status();
  std::vector<Key>().swap(data);

  std::vector<double> build_ms, q2_ms, q100_ms, tail_ms, op_seconds;
  std::vector<double> traced_q100, untraced_q100;
  StageTotals stages;
  ExtentStatsSnapshot packs;
  double io_stall_s = 0;
  uint64_t runs = 0;
  int traced_ops = 0;
  ResetPeakRss();
  const int ops = RunOpLoop(config, [&](bool warmup, bool traced) {
    const StageTotals before = StageTotals::Now();
    const ExtentStatsSnapshot pack_before = source.pack_stats()->Snapshot();
    Result<QuerySession<Key>> session = Status::Internal("never built");
    Result<QueryResults<Key>> a2 = Status::Internal("never asked");
    Result<QueryResults<Key>> a100 = Status::Internal("never asked");
    Result<QueryResults<Key>> atail = Status::Internal("never asked");
    EngineStats stats;
    double t[5] = {0, 0, 0, 0, 0};
    {
      LayerSpan op_span("harness", "exact-zipf-extent op");
      t[0] = NowSeconds();
      Engine<Key> engine(opaq, source);
      {
        LayerSpan span("core", "Engine::Build");
        session = engine.Build();
      }
      stats = engine.stats();
      t[1] = NowSeconds();
      if (session.ok()) {
        LayerSpan span("core", "QuerySession::Query exact q=2");
        a2 = session->Query(q2);
      }
      t[2] = NowSeconds();
      if (session.ok()) {
        LayerSpan span("core", "QuerySession::Query exact q=100");
        a100 = session->Query(q100);
      }
      t[3] = NowSeconds();
      if (session.ok()) {
        LayerSpan span("core", "QuerySession::Query exact tail");
        atail = session->Query(tail);
      }
      t[4] = NowSeconds();
    }
    const StageTotals after = StageTotals::Now();
    ExtentStatsSnapshot pack_delta = source.pack_stats()->Snapshot();
    pack_delta.Subtract(pack_before);
    Status status = session.status();
    if (status.ok()) status = a2.status();
    if (status.ok()) status = a100.status();
    if (status.ok()) status = atail.status();
    report->CountOp(status);
    if (!status.ok()) return false;
    if (SampleListBytes(session->sample_list()) != reference) {
      report->Fail("exact-zipf-extent: an op's sketch differs from the "
                   "reference");
    }
    if (ExactValues(*a2) != *truth_q2 || ExactValues(*a100) != *truth_q100 ||
        ExactValues(*atail) != *truth_tail) {
      report->Fail("exact-zipf-extent: an exact value is not the true order "
                   "statistic");
    }
    if (warmup) return true;
    build_ms.push_back((t[1] - t[0]) * 1e3);
    q2_ms.push_back((t[2] - t[1]) * 1e3);
    q100_ms.push_back((t[3] - t[2]) * 1e3);
    tail_ms.push_back((t[4] - t[3]) * 1e3);
    op_seconds.push_back(t[4] - t[0]);
    (traced ? traced_q100 : untraced_q100).push_back((t[3] - t[2]) * 1e3);
    if (traced) {
      stages.AddDelta(before, after);
      packs.Add(pack_delta);
      io_stall_s += stats.io_stall_seconds;
      runs += stats.runs;
      ++traced_ops;
    }
    return true;
  });
  const double peak_mb = PeakRssMb();
  if (ops == 0) return Status::Internal("exact-zipf-extent: no op completed");

  double op_total = 0;
  for (double s : op_seconds) op_total += s;
  report->SetEndToEnd("setup_s", Median(setup_s));
  report->SetEndToEnd("build_ms", Median(build_ms));
  report->SetEndToEnd("op_ms", Median(op_seconds) * 1e3);
  report->SetEndToEnd("ops_per_s", ops / op_total);
  report->SetEndToEnd("rank_error_ppm",
                      static_cast<double>(epoch1->max_rank_error()) /
                          static_cast<double>(n) * 1e6);
  report->SetEndToEnd("peak_rss_mb", peak_mb);
  report->Note(Format(
      "exact-zipf-extent: n=%llu packed=%.1f MB ops=%d sketch_melem_s=%.3f "
      "M el/s exact_q2_ms=%.2f ms exact_q100_ms=%.2f ms exact_tail_ms=%.2f "
      "ms",
      static_cast<unsigned long long>(n), static_cast<double>(file_bytes) / 1e6,
      ops, static_cast<double>(n) / Median(build_ms) / 1e3, Median(q2_ms),
      Median(q100_ms), Median(tail_ms)));
  report->Note("  build_ms " + Summary(build_ms, "ms"));
  report->Note("  exact_q2_ms " + Summary(q2_ms, "ms"));
  report->Note("  exact_q100_ms " + Summary(q100_ms, "ms"));
  report->Note("  exact_tail_ms " + Summary(tail_ms, "ms"));

  if (config.trace && traced_ops > 0) {
    const double per = traced_ops;
    ReportStages(stages, per, report);
    report->SetLayer("core.exact_pass_ms", Median(traced_q100));
    report->SetLayer("core.exact_ns_per_elem_bracket",
                     Median(traced_q100) * 1e6 / (static_cast<double>(n) * 99));
    report->SetLayer("io.read_wait_ms", io_stall_s * 1e3 / per);
    report->SetLayer("io.runs", static_cast<double>(runs) / per);
    ReportPacking(packs, per, report);
    report->SetLayer("util.crc_bytes",
                     static_cast<double>(packs.packed_bytes) / per);
    report->SetLayer("telemetry.overhead_frac",
                     OverheadFrac(traced_q100, untraced_q100));
    ProbeSession(*epoch1, report);
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace opaq
