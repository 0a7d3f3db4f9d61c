// remote-stream: two in-process NodeServers on loopback, one exporting a
// plain file of uniform keys and one a delta-extent file of zipf keys. The
// client runs a two-shard Engine over Source::OpenRemote with node_compute
// off, so RemoteRunProvider and RemoteExtentProvider both stream every
// element. Each op is Engine::Build plus an exact EquiQuantiles(2) batch.
// Only here do the remote pipelines and the per-frame wire CRC carry much
// of the work.

#include <algorithm>
#include <memory>

#include "data/dataset.h"
#include "io/block_device.h"
#include "io/extent.h"
#include "net/node_server.h"
#include "opaq/engine.h"
#include "perfbench/workloads.h"

namespace opaq {
namespace perfbench {

namespace {

/// The two data nodes and the files they serve; servers are declared last
/// so they stop before the files they borrow close.
struct Nodes {
  std::unique_ptr<FileBlockDevice> plain_device;
  std::unique_ptr<FileBlockDevice> extent_device;
  std::unique_ptr<TypedDataFile<Key>> plain;
  std::unique_ptr<ExtentFile> extents;
  std::unique_ptr<NodeServer> uniform_node;
  std::unique_ptr<NodeServer> zipf_node;

  uint64_t bytes_sent() const {
    return uniform_node->bytes_sent() + zipf_node->bytes_sent();
  }
  uint64_t bytes_received() const {
    return uniform_node->bytes_received() + zipf_node->bytes_received();
  }
  uint64_t requests_served() const {
    return uniform_node->requests_served() + zipf_node->requests_served();
  }
};

/// Opens both files and starts one node per file.
Result<std::unique_ptr<Nodes>> StartNodes(const std::string& plain_path,
                                          const std::string& extent_path) {
  auto nodes = std::make_unique<Nodes>();
  auto plain_device =
      FileBlockDevice::Make(plain_path, FileBlockDevice::Mode::kOpen);
  if (!plain_device.ok()) return plain_device.status();
  nodes->plain_device = std::move(plain_device).value();
  auto plain = TypedDataFile<Key>::Open(nodes->plain_device.get());
  if (!plain.ok()) return plain.status();
  nodes->plain = std::make_unique<TypedDataFile<Key>>(std::move(*plain));

  auto extent_device =
      FileBlockDevice::Make(extent_path, FileBlockDevice::Mode::kOpen);
  if (!extent_device.ok()) return extent_device.status();
  nodes->extent_device = std::move(extent_device).value();
  auto extents = ExtentFile::Open({nodes->extent_device.get()});
  if (!extents.ok()) return extents.status();
  nodes->extents = std::make_unique<ExtentFile>(std::move(*extents));

  nodes->uniform_node = std::make_unique<NodeServer>();
  nodes->uniform_node->Export<Key>("uniform", nodes->plain.get());
  OPAQ_RETURN_IF_ERROR(nodes->uniform_node->Start());
  nodes->zipf_node = std::make_unique<NodeServer>();
  nodes->zipf_node->Export<Key>("zipf", nodes->extents.get());
  OPAQ_RETURN_IF_ERROR(nodes->zipf_node->Start());
  return nodes;
}

Result<std::vector<Source<Key>>> OpenShards(const Nodes& nodes) {
  NodeClientOptions options;
  options.node_compute = false;
  auto uniform = Source<Key>::OpenRemote(
      "127.0.0.1:" + std::to_string(nodes.uniform_node->port()) + "/uniform",
      options);
  if (!uniform.ok()) return uniform.status();
  auto zipf = Source<Key>::OpenRemote(
      "127.0.0.1:" + std::to_string(nodes.zipf_node->port()) + "/zipf",
      options);
  if (!zipf.ok()) return zipf.status();
  return std::vector<Source<Key>>{*uniform, *zipf};
}

}  // namespace

Status RunRemoteStream(const RunConfig& config, Report* report) {
  using Request = QueryRequest<Key>;
  const uint64_t per_node = config.tiny ? 500000 : 8000000;
  const uint64_t n = 2 * per_node;
  const OpaqConfig opaq = BenchConfig(config);
  const std::string plain_path = config.work_dir + "/remote-uniform.opaq";
  const std::string extent_path = config.work_dir + "/remote-zipf.opaq";

  DatasetSpec spec;
  spec.n = per_node;
  spec.seed = config.seed;
  spec.distribution = Distribution::kUniform;
  std::vector<Key> data = GenerateDataset<Key>(spec);
  spec.seed = config.seed + 1;
  spec.distribution = Distribution::kZipf;
  std::vector<Key> zipf = GenerateDataset<Key>(spec);
  ExtentWriterOptions writer;
  writer.extent_elements = 64u << 10;
  writer.codec = ExtentCodec::kDelta;

  // Setup: both files through the repo's writers, both nodes, epoch 1.
  std::vector<double> setup_s;
  std::vector<uint8_t> epoch1_bytes;
  std::unique_ptr<Nodes> nodes;
  std::vector<Source<Key>> shards;
  uint64_t max_rank_error = 0;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    nodes.reset();
    shards.clear();
    const double start = NowSeconds();
    {
      auto device =
          FileBlockDevice::Make(plain_path, FileBlockDevice::Mode::kCreate);
      if (!device.ok()) return device.status();
      OPAQ_RETURN_IF_ERROR(WriteDataset(data, device->get()));
      OPAQ_RETURN_IF_ERROR((*device)->Sync());
    }
    {
      auto device =
          FileBlockDevice::Make(extent_path, FileBlockDevice::Mode::kCreate);
      if (!device.ok()) return device.status();
      auto written = WriteExtents<Key>(zipf, {device->get()}, writer);
      if (!written.ok()) return written.status();
      OPAQ_RETURN_IF_ERROR((*device)->Sync());
    }
    auto started = StartNodes(plain_path, extent_path);
    if (!started.ok()) return started.status();
    nodes = std::move(started).value();
    auto opened = OpenShards(*nodes);
    if (!opened.ok()) return opened.status();
    shards = std::move(opened).value();
    auto session = Engine<Key>(opaq, shards).Build();
    if (!session.ok()) return session.status();
    setup_s.push_back(NowSeconds() - start);
    std::vector<uint8_t> bytes = SampleListBytes(session->sample_list());
    if (rep == 0) epoch1_bytes = bytes;
    if (bytes != epoch1_bytes) {
      report->Fail("remote-stream: setup builds differ");
    }
    max_rank_error = session->max_rank_error();
  }

  // The reference is a local two-shard build over the same files, so the
  // remote path is checked against a path that never touches the wire.
  auto local_extents = Source<Key>::FromFile(nodes->extents.get());
  if (!local_extents.ok()) return local_extents.status();
  auto local = Engine<Key>(opaq, std::vector<Source<Key>>{
                                     Source<Key>::FromFile(nodes->plain.get()),
                                     *local_extents})
                   .Build();
  if (!local.ok()) return local.status();
  const std::vector<uint8_t> reference = SampleListBytes(local->sample_list());
  if (reference != epoch1_bytes) {
    report->Fail("remote-stream: the remote sketch differs from the local "
                 "one");
  }
  const std::vector<Request> q2 = {Request::EquiQuantiles(2, true)};
  data.insert(data.end(), zipf.begin(), zipf.end());
  std::vector<Key>().swap(zipf);
  std::sort(data.begin(), data.end());
  auto truth_q2 = Truths(*local, q2, data);
  if (!truth_q2.ok()) return truth_q2.status();
  std::vector<Key>().swap(data);

  std::vector<double> build_ms, q2_ms, op_seconds;
  std::vector<double> traced_build, untraced_build, traced_q2;
  StageTotals stages;
  ExtentStatsSnapshot packs;
  double io_stall_s = 0;
  uint64_t runs = 0, sent = 0, received = 0, requests = 0;
  int traced_ops = 0;
  const ExtentStats* pack_stats = shards[1].pack_stats();
  ResetPeakRss();
  const int ops = RunOpLoop(config, [&](bool warmup, bool traced) {
    const StageTotals before = StageTotals::Now();
    const ExtentStatsSnapshot pack_before = pack_stats->Snapshot();
    const uint64_t sent_before = nodes->bytes_sent();
    const uint64_t received_before = nodes->bytes_received();
    const uint64_t requests_before = nodes->requests_served();
    Result<QuerySession<Key>> session = Status::Internal("never built");
    Result<QueryResults<Key>> answers = Status::Internal("never asked");
    EngineStats stats;
    double t0 = 0, t1 = 0, t2 = 0;
    {
      LayerSpan op_span("harness", "remote-stream op");
      t0 = NowSeconds();
      Engine<Key> engine(opaq, shards);
      {
        LayerSpan span("core", "Engine::Build");
        session = engine.Build();
      }
      stats = engine.stats();
      t1 = NowSeconds();
      if (session.ok()) {
        LayerSpan span("core", "QuerySession::Query exact q=2");
        answers = session->Query(q2);
      }
      t2 = NowSeconds();
    }
    const StageTotals after = StageTotals::Now();
    ExtentStatsSnapshot pack_delta = pack_stats->Snapshot();
    pack_delta.Subtract(pack_before);
    const Status status = session.ok() ? answers.status() : session.status();
    report->CountOp(status);
    if (!status.ok()) return false;
    if (SampleListBytes(session->sample_list()) != reference) {
      report->Fail("remote-stream: an op's sketch differs from the "
                   "reference");
    }
    if (ExactValues(*answers) != *truth_q2) {
      report->Fail("remote-stream: the exact median is not the true one");
    }
    if (warmup) return true;
    build_ms.push_back((t1 - t0) * 1e3);
    q2_ms.push_back((t2 - t1) * 1e3);
    op_seconds.push_back(t2 - t0);
    (traced ? traced_build : untraced_build).push_back((t1 - t0) * 1e3);
    if (traced) {
      traced_q2.push_back((t2 - t1) * 1e3);
      stages.AddDelta(before, after);
      packs.Add(pack_delta);
      io_stall_s += stats.io_stall_seconds;
      runs += stats.runs;
      sent += nodes->bytes_sent() - sent_before;
      received += nodes->bytes_received() - received_before;
      requests += nodes->requests_served() - requests_before;
      ++traced_ops;
    }
    return true;
  });
  const double peak_mb = PeakRssMb();
  if (ops == 0) return Status::Internal("remote-stream: no op completed");

  double op_total = 0;
  for (double s : op_seconds) op_total += s;
  report->SetEndToEnd("setup_s", Median(setup_s));
  report->SetEndToEnd("build_ms", Median(build_ms));
  report->SetEndToEnd("op_ms", Median(op_seconds) * 1e3);
  report->SetEndToEnd("ops_per_s", ops / op_total);
  report->SetEndToEnd("rank_error_ppm", static_cast<double>(max_rank_error) /
                                            static_cast<double>(n) * 1e6);
  report->SetEndToEnd("peak_rss_mb", peak_mb);
  report->Note(Format("remote-stream: n=%llu ops=%d sketch_melem_s=%.3f M "
                      "el/s exact_q2_ms=%.2f ms",
                      static_cast<unsigned long long>(n), ops,
                      static_cast<double>(n) / Median(build_ms) / 1e3,
                      Median(q2_ms)));
  report->Note("  build_ms " + Summary(build_ms, "ms"));
  report->Note("  exact_q2_ms " + Summary(q2_ms, "ms"));

  if (config.trace && traced_ops > 0) {
    const double per = traced_ops;
    ReportStages(stages, per, report);
    report->SetLayer("core.exact_pass_ms", Median(traced_q2));
    report->SetLayer("core.exact_ns_per_elem_bracket",
                     Median(traced_q2) * 1e6 / static_cast<double>(n));
    report->SetLayer("io.read_wait_ms", io_stall_s * 1e3 / per);
    report->SetLayer("io.runs", static_cast<double>(runs) / per);
    ReportPacking(packs, per, report);
    report->SetLayer("net.bytes_sent", static_cast<double>(sent) / per);
    report->SetLayer("net.bytes_received",
                     static_cast<double>(received) / per);
    report->SetLayer("net.requests_served",
                     static_cast<double>(requests) / per);
    // Each op streams every element twice: once to sketch, once to scan.
    report->SetLayer("net.bytes_per_elem",
                     static_cast<double>(sent) / per / (2.0 * n));
    report->SetLayer("util.crc_bytes",
                     static_cast<double>(packs.packed_bytes + sent + received) /
                         per);
    report->SetLayer("telemetry.overhead_frac",
                     OverheadFrac(traced_build, untraced_build));
    ProbeSession(*local, report);
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace opaq
