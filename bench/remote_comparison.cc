// Table-11-style side-by-side of every storage backend INCLUDING the
// networked one: the one-pass sample phase over the same logical data on
// (a) a plain throttled disk, sync and async, (b) a striped throttled
// array, and (c) a loopback data node serving that same throttled disk
// with injectable per-request latency (--net-delay-ms, default 0.2ms —
// LAN-class RTT), with node compute off (the client streams every run
// over the wire) and on (the node runs the sample phase itself and ships
// only the O(s) sample list).
//
// Each timing cell is "seconds (blocked fraction)". Expected shape:
// remote sync pays the full RTT per request on the critical path, while
// remote async — pipelined request-ahead — hides it behind sampling just
// as async disk I/O hides seeks. Node compute goes further: latency AND
// bandwidth drop out together because the data never leaves the node.
//
// A second table reports bytes-on-wire for the sample phase (measured at
// the node's own send counter, so it includes every frame header and
// error path, not just payload bytes). The bench FAILS (exit 1) if node
// compute does not beat streaming by at least 10x — that ratio is the
// contract the compute path exists to honour.

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "net/client.h"
#include "net/node_server.h"
#include "opaq/engine.h"

namespace opaq {
namespace bench {
namespace {

struct ModeRun {
  double seconds = 0;
  double blocked_fraction = 0;
};

ModeRun RunMode(const Source<Key>& source, IoMode io_mode,
                uint64_t run_size, uint64_t samples_per_run) {
  OpaqConfig config;
  config.run_size = run_size;
  config.samples_per_run = samples_per_run;
  config.io_mode = io_mode;
  config.prefetch_depth = 2;
  config.stripes = source.stripes();
  Engine<Key> engine(config, source);
  auto session = engine.Build();
  OPAQ_CHECK_OK(session.status());
  ModeRun run;
  run.seconds = engine.stats().seconds;
  run.blocked_fraction =
      run.seconds > 0 ? engine.stats().io_stall_seconds / run.seconds : 0;
  return run;
}

int Main(int argc, char** argv) {
  BenchOptions options = BenchOptions::FromArgs(argc, argv);
  auto extra = Flags::Parse(argc, argv);
  OPAQ_CHECK_OK(extra.status());
  const double net_delay_ms = extra->GetDouble("net-delay-ms", 0.2);
  const uint64_t kPaperSizes[] = {500000, 1000000, 2000000, 4000000};
  const uint64_t kRunSize = 131072;
  const uint64_t kSamples = 1024;

  TextTable table;
  table.SetTitle(
      "Remote vs local backends: sample-phase seconds (blocked-on-I/O "
      "fraction), throttled disks, loopback node +" +
      TextTable::Num(net_delay_ms, 2) + "ms/request");
  std::vector<std::string> head{"Mode"};
  for (uint64_t size : kPaperSizes) {
    head.push_back(HumanCount(options.Scaled(size, 1000)));
  }
  table.AddHeader(head);

  struct Cell {
    std::string label;
    std::vector<std::string> values;
  };
  std::vector<Cell> rows = {
      {"sync", {}},
      {"async", {}},
      {"striped x" + std::to_string(options.stripes) + " async", {}},
      {"remote sync (streamed)", {}},
      {"remote async (streamed)", {}},
      {"remote async (node compute)", {}},
  };
  std::vector<Cell> wire_rows = {
      {"streamed runs", {}},
      {"node-side sampling", {}},
      {"streamed / compute ratio", {}},
  };
  double min_ratio = -1;

  for (uint64_t paper_size : kPaperSizes) {
    const uint64_t n = options.Scaled(paper_size, 1000);
    DatasetSpec spec;
    spec.n = n;
    spec.seed = options.seed;
    spec.distribution = Distribution::kZipf;
    std::vector<Key> data = GenerateDataset<Key>(spec);

    SimulatedDisk plain = MakeSimulatedDisk(data, /*sleep_mode=*/true);
    SimulatedStripedDisk striped = MakeSimulatedStripedDisk(
        data, /*sleep_mode=*/true, options.stripes,
        kRunSize / static_cast<uint64_t>(options.stripes));

    // The data node serves its OWN throttled disk (so its device time is
    // charged node-side, as it would be on a real remote machine), plus
    // the injected per-request network latency. The export is typed, so
    // the node is a full compute node; the streamed rows turn node
    // compute off to keep them measuring the streaming protocol.
    SimulatedDisk node_disk = MakeSimulatedDisk(data, /*sleep_mode=*/true);
    NodeServerOptions node_options;
    node_options.response_delay_seconds = net_delay_ms / 1000.0;
    NodeServer node(node_options);
    node.Export("data", &node_disk.file);
    OPAQ_CHECK_OK(node.Start());
    NodeClientOptions streamed;
    streamed.node_compute = false;
    auto remote_streamed = Source<Key>::OpenRemote(node.address() + "/data",
                                                   streamed);
    OPAQ_CHECK_OK(remote_streamed.status());
    auto remote_compute = Source<Key>::OpenRemote(node.address() + "/data");
    OPAQ_CHECK_OK(remote_compute.status());

    const Source<Key> sources[] = {
        Source<Key>::FromFile(&plain.file),
        Source<Key>::FromFile(&plain.file),
        Source<Key>::FromFile(striped.file.get()),
        *remote_streamed,
        *remote_streamed,
        *remote_compute,
    };
    const IoMode modes[] = {IoMode::kSync,  IoMode::kAsync, IoMode::kAsync,
                            IoMode::kSync,  IoMode::kAsync, IoMode::kAsync};
    uint64_t streamed_bytes = 0;
    uint64_t compute_bytes = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const uint64_t before = node.bytes_sent();
      ModeRun run = RunMode(sources[i], modes[i], kRunSize, kSamples);
      const uint64_t sent = node.bytes_sent() - before;
      if (rows[i].label == "remote async (streamed)") streamed_bytes = sent;
      if (rows[i].label == "remote async (node compute)") {
        compute_bytes = sent;
      }
      rows[i].values.push_back(TextTable::Num(run.seconds, 2) + " (" +
                               TextTable::Num(run.blocked_fraction, 2) + ")");
    }
    node.Stop();

    const double ratio =
        compute_bytes > 0
            ? static_cast<double>(streamed_bytes) / compute_bytes
            : 0;
    wire_rows[0].values.push_back(HumanCount(streamed_bytes) + "B");
    wire_rows[1].values.push_back(HumanCount(compute_bytes) + "B");
    wire_rows[2].values.push_back(TextTable::Num(ratio, 1) + "x");
    if (min_ratio < 0 || ratio < min_ratio) min_ratio = ratio;
  }

  for (const Cell& row : rows) {
    std::vector<std::string> out{row.label};
    out.insert(out.end(), row.values.begin(), row.values.end());
    table.AddRow(out);
  }
  Emit(table, options);

  TextTable wire_table;
  wire_table.SetTitle(
      "Bytes on the wire, sample phase (node send counter: all frames "
      "incl. headers)");
  wire_table.AddHeader(head);
  for (const Cell& row : wire_rows) {
    std::vector<std::string> out{row.label};
    out.insert(out.end(), row.values.begin(), row.values.end());
    wire_table.AddRow(out);
  }
  Emit(wire_table, options);

  if (min_ratio < 10.0) {
    std::fprintf(stderr,
                 "FAIL: node compute must ship at least 10x fewer "
                 "sample-phase bytes than streaming (worst ratio %.1fx)\n",
                 min_ratio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace opaq

int main(int argc, char** argv) { return opaq::bench::Main(argc, argv); }
