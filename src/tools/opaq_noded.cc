// opaq_noded — the OPAQ data-node daemon: exports local datasets (plain,
// striped, or compressed-extent files, any key type) over the wire
// protocol so remote `Engine`s can consume them as shards via
// `Source::OpenRemote`. Every export is typed, so the node is a full
// COMPUTE node: it answers `SampleRuns` / `ExactPass` by running the
// paper's sample phase and §4 filter scan over its own disks and shipping
// only the O(s) results; clients with node compute off stream raw ranges
// instead. Extent exports additionally answer the `kReadExtents` op: the
// stored (packed) extents ship verbatim and the client decodes, so
// compression cuts bytes-on-wire too. The on-disk
// format is sniffed per export — point --export at any OPAQ file set: a
// plain file, the stripes of a striped file, or an extent file of one or
// more stripes. A live (appendable) dataset directory is served with
// --live, which also accepts APPEND frames; --export refuses a
// directory and says so.
//
//   opaq_noded --export=sales=/data/sales.opaq --port=34601
//   opaq_noded --export=logs=/d0/l.s0+/d1/l.s1+/d2/l.s2   # striped dataset
//   opaq_noded --export=a=a.opaq,b=b.opaq --port=0        # 0 = ephemeral
//   opaq_noded --live=events=/data/events                 # live directory
//
// Each --export entry is name=path (one file) or name=p0+p1+... (the
// stripes of one striped or extent file, logical order); paths may contain
// '=' — only the first '=' of an entry separates the name. Duplicate
// dataset names are a startup error. The node prints one line per dataset
// plus its bound address, then serves until SIGINT/SIGTERM (or for
// --duration seconds, for scripted runs); shutdown is ordered — every
// connection thread is joined and the final traffic counters print.
//
// SECURITY: the protocol is unauthenticated — the default bind address
// stays on 127.0.0.1; bind 0.0.0.0 only on networks where every peer is
// trusted (see README "Distributed mode").

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "opaq/ingest.h"
#include "opaq/io.h"
#include "opaq/net.h"
#include "opaq/source.h"
#include "opaq/status.h"
#include "opaq/telemetry.h"
#include "opaq/util.h"

namespace opaq {
namespace noded {
namespace {

int Fail(const Status& status) {
  std::cerr << "opaq_noded: error: " << status.ToString() << std::endl;
  return 1;
}

/// Opens one --export entry's paths as a typed export: the key type comes
/// from the probe, the layout (plain, striped, or extent files of one or
/// more stripes) from `Source::Open`'s sniffing. A live directory belongs
/// under --live, which also accepts appends.
Result<ExportedDataset> OpenExport(const std::vector<std::string>& paths) {
  std::error_code error;
  if (paths.size() == 1 && std::filesystem::is_directory(paths[0], error)) {
    return Status::InvalidArgument(
        paths[0] + " is a directory; serve a live dataset with "
                   "--live=NAME=DIR");
  }
  OPAQ_ASSIGN_OR_RETURN(KeyType key_type, ProbeKeyType(paths));
  return VisitKeyType(key_type, [&](auto key) -> Result<ExportedDataset> {
    using K = decltype(key);
    OPAQ_ASSIGN_OR_RETURN(Source<K> source, Source<K>::Open(paths));
    return MakeExport(std::move(source));
  });
}

/// A live export's shared state. Appends serialize under `writer_mutex`
/// (the wire delivers them from concurrent connection threads); every
/// committed append reopens a read snapshot and swaps it in under
/// `snapshot_mutex`, so in-flight reads/computes finish on the snapshot
/// they started with — the same epoch discipline as `opaq_queryd`'s
/// refresh — and new requests see the new segment immediately.
template <typename K>
struct LiveBundle {
  std::mutex writer_mutex;
  std::unique_ptr<LiveDataset<K>> writer;
  std::mutex snapshot_mutex;
  std::shared_ptr<const LiveDatasetReader<K>> snapshot;

  std::shared_ptr<const LiveDatasetReader<K>> Snapshot() {
    std::lock_guard<std::mutex> lock(snapshot_mutex);
    return snapshot;
  }

  /// Opens a read snapshot of `dir`'s durable segments and swaps it in.
  Status Reopen(const std::string& dir) {
    OPAQ_ASSIGN_OR_RETURN(LiveDatasetReader<K> reader,
                          LiveDatasetReader<K>::Open(dir));
    auto next = std::make_shared<const LiveDatasetReader<K>>(std::move(reader));
    std::lock_guard<std::mutex> lock(snapshot_mutex);
    snapshot = std::move(next);
    return Status::OK();
  }
};

/// Binds the live dataset directory as a typed appendable export: all the
/// usual read/compute hooks over the current snapshot, plus the
/// `append` hook and a `live_count` that tracks growth.
template <typename K>
Result<ExportedDataset> MakeLiveExport(const std::string& dir) {
  auto bundle = std::make_shared<LiveBundle<K>>();
  auto writer = LiveDataset<K>::Open(dir);
  if (!writer.ok()) return writer.status();
  bundle->writer =
      std::make_unique<LiveDataset<K>>(std::move(writer).value());
  OPAQ_RETURN_IF_ERROR(bundle->Reopen(dir));
  ExportedDataset dataset =
      ProviderExport<K>([bundle] { return bundle->Snapshot(); });
  dataset.live_count = [bundle]() { return bundle->Snapshot()->size(); };
  dataset.append = [bundle, dir](const uint8_t* elements,
                                 uint64_t count) -> Result<WireAppendAck> {
    std::lock_guard<std::mutex> writer_lock(bundle->writer_mutex);
    std::vector<K> values(count);
    std::memcpy(values.data(), elements, count * sizeof(K));
    OPAQ_RETURN_IF_ERROR(bundle->writer->Append(values));
    // The segment is durable; fold it into the read snapshot before
    // acking so a reader that acts on the ack already sees its data.
    OPAQ_RETURN_IF_ERROR(bundle->Reopen(dir));
    WireAppendAck ack;
    ack.total_elements = bundle->writer->total_elements();
    ack.num_segments = bundle->writer->num_segments();
    return ack;
  };
  dataset.owner = bundle;
  return dataset;
}

/// Opens a --live entry: the directory's manifest names the key type.
/// The dataset must already exist (create it with `opaq_cli append
/// --live=DIR` or the writer API) so a typo'd path fails loudly instead of
/// silently serving a fresh empty dataset.
Result<ExportedDataset> OpenLiveExport(const std::string& dir) {
  OPAQ_ASSIGN_OR_RETURN(LiveManifestInfo info, ReadLiveManifestInfo(dir));
  return VisitKeyType(info.key_type, [&](auto key) {
    return MakeLiveExport<decltype(key)>(dir);
  });
}

int Usage(std::ostream& os, int code) {
  os << "usage: opaq_noded --export=NAME=PATH[+PATH...][,NAME=PATH...] "
        "[flags]\n\n"
        "serves local OPAQ datasets to remote engines over TCP (wire "
        "protocol version "
     << kWireVersion
     << ":\nrange and extent streaming + node-side compute).\n\nflags:\n"
        "  --export=...        datasets to serve: name=path for one file,\n"
        "                      name=p0+p1+... for the stripes of one file;\n"
        "                      plain, striped and extent files (single or\n"
        "                      striped) are sniffed. A directory is refused:\n"
        "                      serve it with --live. (First '=' separates the\n"
        "                      name; duplicate names are an error)\n"
        "  --live=NAME=DIR     live (appendable) dataset directories to "
        "serve; the\n"
        "                      node additionally accepts APPEND frames "
        "for these\n"
        "                      (create one first with `opaq_cli append "
        "--live=DIR`)\n"
        "  --bind=127.0.0.1    IPv4 address to bind (UNAUTHENTICATED "
        "protocol:\n"
        "                      bind non-loopback only on trusted networks)\n"
        "  --port=34601        TCP port (0 = pick an ephemeral port)\n"
        "  --max-read-bytes=4194304  per-request read bound\n"
        "  --max-compute-run-bytes="
     << NodeServerOptions{}.max_compute_run_bytes
     << "  per-request bound on the node-side\n"
        "                      run buffer of SAMPLE_RUNS / EXACT_PASS\n"
        "  --delay-ms=0        artificial response latency (bench/testing)\n"
        "  --duration=0        serve this many seconds, then exit (0 = "
        "until\n"
        "                      SIGINT/SIGTERM; either way shutdown is clean "
        "and the\n"
        "                      final stats print)\n"
        "  --stats-interval=0  seconds between periodic stats dumps to "
        "stdout\n"
        "                      (same rows `opaq_cli stats` fetches; 0 = "
        "only the\n"
        "                      shutdown summary)\n";
  return code;
}

/// A bad flag VALUE (--port=, --port=999999999999999999999, --delay-ms=fast)
/// is usage, not an internal error: say what was wrong, show the help, exit
/// 2 — never abort, never silently bind port 0.
int BadFlag(const Status& status) {
  std::cerr << "opaq_noded: " << status.message() << "\n";
  return Usage(std::cerr, 2);
}

int Main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) return Fail(flags.status());
  {
    auto help = flags->TryGetBool("help", false);
    if (!help.ok()) return BadFlag(help.status());
    if (*help) return Usage(std::cout, 0);
  }
  for (const std::string& key : flags->keys()) {
    if (key != "export" && key != "live" && key != "bind" && key != "port" &&
        key != "max-read-bytes" && key != "max-compute-run-bytes" &&
        key != "delay-ms" && key != "duration" &&
        key != "stats-interval" && key != "help") {
      std::cerr << "opaq_noded: unknown flag --" << key << "\n";
      return Usage(std::cerr, 2);
    }
  }
  if (!flags->positional().empty()) {
    std::cerr << "opaq_noded: unexpected positional argument '"
              << flags->positional()[0] << "'\n";
    return Usage(std::cerr, 2);
  }
  if (!flags->Has("export") && !flags->Has("live")) {
    std::cerr << "opaq_noded: nothing to serve\n";
    return Usage(std::cerr, 2);
  }

  std::vector<ExportSpecEntry> static_entries;
  if (flags->Has("export")) {
    auto entries = ParseExportSpecs(flags->GetString("export", ""));
    if (!entries.ok()) return Fail(entries.status());
    static_entries = std::move(entries).value();
  }
  std::vector<ExportSpecEntry> live_entries;
  if (flags->Has("live")) {
    auto entries = ParseExportSpecs(flags->GetString("live", ""));
    if (!entries.ok()) return Fail(entries.status());
    live_entries = std::move(entries).value();
    for (const ExportSpecEntry& entry : live_entries) {
      if (entry.paths.size() != 1) {
        return Fail(Status::InvalidArgument(
            "--live entry '" + entry.name +
            "': a live dataset is one directory, not a striped path list"));
      }
      for (const ExportSpecEntry& other : static_entries) {
        if (other.name == entry.name) {
          return Fail(Status::InvalidArgument(
              "dataset name '" + entry.name +
              "' appears in both --export and --live"));
        }
      }
    }
  }

  NodeServerOptions options;
  options.bind_address = flags->GetString("bind", "127.0.0.1");
  const auto port = flags->TryGetInt("port", 34601);
  if (!port.ok()) return BadFlag(port.status());
  if (*port < 0 || *port > 65535) {
    return BadFlag(Status::InvalidArgument("--port must be in [0, 65535]"));
  }
  options.port = static_cast<uint16_t>(*port);
  const auto max_read = flags->TryGetInt("max-read-bytes", 4 << 20);
  if (!max_read.ok()) return BadFlag(max_read.status());
  if (*max_read < 1) {
    return BadFlag(Status::InvalidArgument("--max-read-bytes must be >= 1"));
  }
  options.max_read_bytes = static_cast<uint64_t>(*max_read);
  const auto max_compute_run = flags->TryGetInt(
      "max-compute-run-bytes",
      static_cast<int64_t>(options.max_compute_run_bytes));
  if (!max_compute_run.ok()) return BadFlag(max_compute_run.status());
  if (*max_compute_run < 1) {
    return BadFlag(
        Status::InvalidArgument("--max-compute-run-bytes must be >= 1"));
  }
  options.max_compute_run_bytes = static_cast<uint64_t>(*max_compute_run);
  const auto delay_ms = flags->TryGetDouble("delay-ms", 0);
  if (!delay_ms.ok()) return BadFlag(delay_ms.status());
  options.response_delay_seconds = *delay_ms / 1000.0;
  const auto duration = flags->TryGetDouble("duration", 0);
  if (!duration.ok()) return BadFlag(duration.status());
  const auto stats_interval = flags->TryGetDouble("stats-interval", 0);
  if (!stats_interval.ok()) return BadFlag(stats_interval.status());
  if (*stats_interval < 0) {
    return BadFlag(
        Status::InvalidArgument("--stats-interval must be non-negative"));
  }

  NodeServer server(options);
  for (const ExportSpecEntry& entry : static_entries) {
    auto dataset = OpenExport(entry.paths);
    if (!dataset.ok()) {
      return Fail(Status(dataset.status().code(),
                         "export '" + entry.name + "': " +
                             dataset.status().message()));
    }
    std::cout << "export " << entry.name << ": " << dataset->element_count
              << " elements x " << dataset->element_size << " bytes ("
              << entry.paths.size()
              << (entry.paths.size() == 1 ? " file" : " stripes");
    if (dataset->extent_elements > 0) {
      std::cout << ", " << dataset->num_extents << " extents, codec "
                << ExtentCodecName(dataset->extent_codec);
    }
    std::cout << ")\n";
    server.Export(entry.name, std::move(dataset).value());
  }
  for (const ExportSpecEntry& entry : live_entries) {
    auto dataset = OpenLiveExport(entry.paths[0]);
    if (!dataset.ok()) {
      return Fail(Status(dataset.status().code(),
                         "live export '" + entry.name + "': " +
                             dataset.status().message()));
    }
    std::cout << "live export " << entry.name << ": "
              << dataset->element_count << " elements x "
              << dataset->element_size << " bytes (" << entry.paths[0]
              << ", appendable)\n";
    server.Export(entry.name, std::move(dataset).value());
  }
  // Latch SIGINT/SIGTERM BEFORE Start so no window exists where a signal
  // kills the daemon mid-setup with connection threads unjoined.
  Status signals = ShutdownSignal::Install();
  if (!signals.ok()) return Fail(signals);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::cout << "serving on " << server.address() << " (protocol version "
            << kWireVersion << ", unauthenticated; trusted networks only)"
            << std::endl;

  // Serve until --duration elapses or a signal arrives, whichever first
  // (printing stats every --stats-interval seconds on the way); either way
  // Stop() joins every connection thread and the final stats print.
  const bool signalled =
      ServeUntilShutdown(&server, *duration, *stats_interval, std::cout);
  server.Stop();
  std::cout << (signalled ? "shutdown: signal received; final stats:\n"
                          : "shutdown: final stats:\n")
            << FormatStatsText(server.StatsSnapshot()) << std::flush;
  return 0;
}

}  // namespace
}  // namespace noded
}  // namespace opaq

int main(int argc, char** argv) { return opaq::noded::Main(argc, argv); }
