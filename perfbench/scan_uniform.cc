// scan-uniform: a closed loop of one client over a plain file of uniform
// keys. Each op is Source::Open, Engine::Build and one estimate-only
// EquiQuantiles(100) batch. Regular sampling takes most of the op, so a
// sample-phase change shows here, while CRC, codecs, the exact pass,
// ingest and the network are bypassed.

#include <algorithm>
#include <memory>

#include "data/dataset.h"
#include "io/block_device.h"
#include "opaq/engine.h"
#include "perfbench/workloads.h"

namespace opaq {
namespace perfbench {

namespace {

bool SameEstimates(const std::vector<QuantileEstimate<Key>>& a,
                   const std::vector<QuantileEstimate<Key>>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const QuantileEstimate<Key>& x,
                       const QuantileEstimate<Key>& y) {
                      return x.target_rank == y.target_rank &&
                             x.lower == y.lower && x.upper == y.upper &&
                             x.lower_clamped == y.lower_clamped &&
                             x.upper_clamped == y.upper_clamped &&
                             x.max_rank_error == y.max_rank_error;
                    });
}

}  // namespace

Status RunScanUniform(const RunConfig& config, Report* report) {
  const uint64_t n = config.tiny ? 1000000 : 20000000;
  const OpaqConfig opaq = BenchConfig(config);
  const std::string path = config.work_dir + "/scan-uniform.opaq";

  DatasetSpec spec;
  spec.n = n;
  spec.seed = config.seed;
  spec.distribution = Distribution::kUniform;
  std::vector<Key> data = GenerateDataset<Key>(spec);

  // Setup: the plain file through the repo's writer, then epoch 1.
  std::vector<double> setup_s;
  std::vector<uint8_t> reference;
  std::unique_ptr<QuerySession<Key>> epoch1;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double start = NowSeconds();
    {
      auto device =
          FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
      if (!device.ok()) return device.status();
      OPAQ_RETURN_IF_ERROR(WriteDataset(data, device->get()));
      OPAQ_RETURN_IF_ERROR((*device)->Sync());
    }
    auto source = Source<Key>::Open(path);
    if (!source.ok()) return source.status();
    auto session = Engine<Key>(opaq, *source).Build();
    if (!session.ok()) return session.status();
    setup_s.push_back(NowSeconds() - start);
    std::vector<uint8_t> bytes = SampleListBytes(session->sample_list());
    if (rep == 0) reference = bytes;
    if (bytes != reference) report->Fail("scan-uniform: setup builds differ");
    epoch1 = std::make_unique<QuerySession<Key>>(std::move(session).value());
  }
  const std::vector<QuantileEstimate<Key>> expected =
      epoch1->EquiQuantiles(100);
  std::sort(data.begin(), data.end());
  CheckCertified(expected, data, "scan-uniform q=100", report);
  std::vector<Key>().swap(data);

  std::vector<double> build_ms, estimate_ms, op_seconds;
  std::vector<double> traced_build, untraced_build;
  StageTotals stages;
  double io_stall_s = 0;
  uint64_t runs = 0;
  int traced_ops = 0;
  ResetPeakRss();
  const int ops = RunOpLoop(config, [&](bool warmup, bool traced) {
    const StageTotals before = StageTotals::Now();
    Result<QuerySession<Key>> session = Status::Internal("never built");
    Result<QueryResults<Key>> answers = Status::Internal("never asked");
    EngineStats stats;
    double t0 = 0, t1 = 0, t2 = 0;
    {
      LayerSpan op_span("harness", "scan-uniform op");
      t0 = NowSeconds();
      Result<Source<Key>> source = Status::Internal("never opened");
      {
        LayerSpan span("io", "Source::Open");
        source = Source<Key>::Open(path);
      }
      if (source.ok()) {
        Engine<Key> engine(opaq, *source);
        {
          LayerSpan span("core", "Engine::Build");
          session = engine.Build();
        }
        stats = engine.stats();
      } else {
        session = source.status();
      }
      t1 = NowSeconds();
      if (session.ok()) {
        LayerSpan span("core", "QuerySession::Query");
        answers = session->Query({QueryRequest<Key>::EquiQuantiles(100)});
      }
      t2 = NowSeconds();
    }
    const StageTotals after = StageTotals::Now();
    const Status status = session.ok() ? answers.status() : session.status();
    report->CountOp(status);
    if (!status.ok()) return false;
    if (SampleListBytes(session->sample_list()) != reference ||
        !SameEstimates(answers->results[0].estimates, expected)) {
      report->Fail("scan-uniform: an op's sketch or answers differ from the "
                   "reference");
    }
    if (warmup) return true;
    build_ms.push_back((t1 - t0) * 1e3);
    estimate_ms.push_back((t2 - t1) * 1e3);
    op_seconds.push_back(t2 - t0);
    (traced ? traced_build : untraced_build).push_back((t1 - t0) * 1e3);
    if (traced) {
      stages.AddDelta(before, after);
      io_stall_s += stats.io_stall_seconds;
      runs += stats.runs;
      ++traced_ops;
    }
    return true;
  });
  const double peak_mb = PeakRssMb();
  if (ops == 0) return Status::Internal("scan-uniform: no op completed");

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
  report->Note(Format("scan-uniform: n=%llu ops=%d sketch_melem_s=%.3f M el/s "
                      "estimate_q100_us=%.1f us",
                      static_cast<unsigned long long>(n), ops,
                      static_cast<double>(n) / Median(build_ms) / 1e3,
                      Median(estimate_ms) * 1e3));
  report->Note("  build_ms " + Summary(build_ms, "ms"));
  report->Note("  estimate_q100_ms " + Summary(estimate_ms, "ms"));

  if (config.trace && traced_ops > 0) {
    const double per = traced_ops;
    ReportStages(stages, per, report);
    report->SetLayer("io.read_wait_ms", io_stall_s * 1e3 / per);
    report->SetLayer("io.runs", static_cast<double>(runs) / per);
    // A plain file stores exactly the bytes sampling consumes.
    report->SetLayer("io.pack_ratio", 1.0);
    report->SetLayer("telemetry.overhead_frac",
                     OverheadFrac(traced_build, untraced_build));
    ProbeSession(*epoch1, report);
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace opaq
