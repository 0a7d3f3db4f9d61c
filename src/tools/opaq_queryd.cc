// opaq_queryd — the OPAQ query-serving daemon: sketch once, serve millions.
// At startup it runs the paper's one pass over every --serve dataset (any
// key type; plain, striped, or extent files of one or more stripes, all
// sniffed, or a live directory) and keeps the finished QuerySession
// in memory; from then on every batched phi-quantile / rank-bracket /
// equi-depth request is answered off the sample list in O(1) per bracket —
// no data I/O on the query path. Exact-flagged requests are admission-
// controlled: concurrent arrivals coalesce into ONE shared §4 second pass
// per round (the paper's "additional quantiles cost one extra pass",
// lifted across connections).
//
//   opaq_queryd --serve=sales=/data/sales.opaq --port=34602
//   opaq_queryd --serve=logs=/d0/l.s0+/d1/l.s1      # striped dataset
//   opaq_queryd --serve=a=a.opaq --refresh-interval=300   # epoch rebuilds
//
// Each --serve entry is name=path (one file or a live directory) or
// name=p0+p1+... (stripes, logical order), like opaq_noded --export. With
// --refresh-interval=N the daemon re-sketches every session every N
// seconds in the background and atomically swaps the new epoch in;
// in-flight queries finish against the epoch they started with. A live
// directory under --serve is re-sketched in full on each refresh; under
// --watch only its newly appended segments are sketched and absorbed. The
// daemon serves until SIGINT/SIGTERM (or --duration seconds); shutdown is
// ordered — every connection thread is joined and the final counters
// print.
//
// SECURITY: the protocol is unauthenticated — the default bind address
// stays on 127.0.0.1; bind 0.0.0.0 only on networks where every peer is
// trusted (see README "Query serving").

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "opaq/io.h"
#include "opaq/net.h"
#include "opaq/opaq.h"
#include "opaq/status.h"
#include "opaq/util.h"

namespace opaq {
namespace queryd {
namespace {

int Fail(const Status& status) {
  std::cerr << "opaq_queryd: error: " << status.ToString() << std::endl;
  return 1;
}

/// The refresher of a --watch session over the live directory `dir`: it
/// is INCREMENTAL — it sketches only the segments appended since the
/// serving epoch and `Absorb`s their sample list into a copy of the
/// session (associative merge, byte-identical to a full rebuild), so a
/// refresh costs one pass over the DELTA, not the dataset. It errors on
/// anything it cannot absorb (dataset vanished or shrank — i.e.
/// recreated), which `Refresh` answers with a full rebuild.
template <typename K>
std::function<Result<QuerySession<K>>(const QuerySession<K>&)> LiveRefresher(
    const std::string& dir, const OpaqConfig& config) {
  return [dir, config](const QuerySession<K>& current)
             -> Result<QuerySession<K>> {
    auto info = ReadLiveManifestInfo(dir);
    if (!info.ok()) return info.status();
    const uint64_t have = current.total_elements();
    if (info->total_elements == have) {
      return current;  // no new segments; re-serve the same sketch
    }
    if (info->total_elements < have) {
      return Status::FailedPrecondition(
          "live dataset shrank below the serving session (recreated?); "
          "needs a full rebuild");
    }
    // `have` is a segment boundary (appends commit whole segments), so
    // the tail's run grid equals sketching the new segments alone and the
    // merge below is byte-identical to a from-scratch rebuild.
    auto tail = Source<K>::OpenLive(dir, have);
    if (!tail.ok()) return tail.status();
    auto delta = Engine<K>(config, *tail).Build();
    if (!delta.ok()) return delta.status();
    QuerySession<K> next = current;
    OPAQ_RETURN_IF_ERROR(
        next.Absorb(delta->sample_list(), {std::move(tail).value()}));
    return next;
  };
}

/// Registers one session, typed by the probed key type. The builder
/// re-opens the dataset and re-runs the one sketching pass on every call,
/// so each Refresh sees the bytes currently on disk (that IS the epoch
/// semantics — a rewritten dataset, or a live directory's new segments, is
/// picked up at the next refresh, by a full rebuild). A `watch` entry must
/// be a live directory and refreshes incrementally (`LiveRefresher`).
Status ServeEntry(QueryServer* server, const ExportSpecEntry& entry,
                  const OpaqConfig& config, bool watch) {
  if (watch) {
    OPAQ_RETURN_IF_ERROR(ReadLiveManifestInfo(entry.paths[0]).status());
  }
  OPAQ_ASSIGN_OR_RETURN(KeyType key_type, ProbeKeyType(entry.paths));
  return VisitKeyType(key_type, [&](auto key) {
    using K = decltype(key);
    return server->Serve<K>(
        entry.name,
        [paths = entry.paths, config]() -> Result<QuerySession<K>> {
          OPAQ_ASSIGN_OR_RETURN(Source<K> source, Source<K>::Open(paths));
          return Engine<K>(config, std::move(source)).Build();
        },
        watch ? LiveRefresher<K>(entry.paths[0], config) : nullptr);
  });
}

int Usage(std::ostream& os, int code) {
  os << "usage: opaq_queryd --serve=NAME=PATH[+PATH...][,NAME=PATH...] "
        "[flags]\n\n"
        "sketches local OPAQ datasets once at startup, then serves batched "
        "quantile /\nrank / equi-depth queries over TCP (wire protocol version "
     << kWireVersion
     << ")\noff the in-memory sample lists.\n\nflags:\n"
        "  --serve=...         sessions to build and serve: name=path for one\n"
        "                      file, name=p0+p1+... for the stripes of one "
        "file;\n"
        "                      plain, striped and extent files (single or\n"
        "                      striped) are sniffed. A live directory is\n"
        "                      re-sketched in full on each refresh\n"
        "  --watch=NAME=DIR    LIVE sessions over live dataset directories "
        "(see\n"
        "                      `opaq_cli append`): refreshes are "
        "incremental —\n"
        "                      only newly appended segments are sketched "
        "and\n"
        "                      Absorb'd into the serving session (epoch "
        "swap);\n"
        "                      pair with --refresh-interval\n"
        "  --bind=127.0.0.1    IPv4 address to bind (UNAUTHENTICATED "
        "protocol:\n"
        "                      bind non-loopback only on trusted networks)\n"
        "  --port=34602        TCP port (0 = pick an ephemeral port)\n"
        "  --run-size=1048576  sketch run size (elements per run)\n"
        "  --samples=1024      samples kept per run (s; rank error ~ n/s)\n"
        "  --seed=1            sampling offset seed\n"
        "  --refresh-interval=0  seconds between background session "
        "rebuilds\n"
        "                      (epoch swap; 0 = never refresh)\n"
        "  --exact-delay-ms=0  batching window for exact-flagged requests\n"
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

/// A bad flag VALUE (--port=, --run-size=huge, --duration=long) is usage,
/// not an internal error: say what was wrong, show the help, exit 2 —
/// never abort, never silently bind port 0.
int BadFlag(const Status& status) {
  std::cerr << "opaq_queryd: " << status.message() << "\n";
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
    if (key != "serve" && key != "watch" && key != "bind" && key != "port" &&
        key != "run-size" && key != "samples" && key != "seed" &&
        key != "refresh-interval" && key != "exact-delay-ms" &&
        key != "delay-ms" && key != "duration" && key != "stats-interval" &&
        key != "help") {
      std::cerr << "opaq_queryd: unknown flag --" << key << "\n";
      return Usage(std::cerr, 2);
    }
  }
  if (!flags->positional().empty()) {
    std::cerr << "opaq_queryd: unexpected positional argument '"
              << flags->positional()[0] << "'\n";
    return Usage(std::cerr, 2);
  }
  if (!flags->Has("serve") && !flags->Has("watch")) {
    std::cerr << "opaq_queryd: nothing to serve\n";
    return Usage(std::cerr, 2);
  }

  std::vector<ExportSpecEntry> static_entries;
  if (flags->Has("serve")) {
    auto entries = ParseExportSpecs(flags->GetString("serve", ""));
    if (!entries.ok()) return Fail(entries.status());
    static_entries = std::move(entries).value();
  }
  std::vector<ExportSpecEntry> live_entries;
  if (flags->Has("watch")) {
    auto entries = ParseExportSpecs(flags->GetString("watch", ""));
    if (!entries.ok()) return Fail(entries.status());
    live_entries = std::move(entries).value();
    for (const ExportSpecEntry& entry : live_entries) {
      if (entry.paths.size() != 1) {
        return Fail(Status::InvalidArgument(
            "--watch entry '" + entry.name +
            "': a live dataset is one directory, not a striped path list"));
      }
      for (const ExportSpecEntry& other : static_entries) {
        if (other.name == entry.name) {
          return Fail(Status::InvalidArgument(
              "session name '" + entry.name +
              "' appears in both --serve and --watch"));
        }
      }
    }
  }

  QueryServerOptions options;
  options.bind_address = flags->GetString("bind", "127.0.0.1");
  const auto port = flags->TryGetInt("port", 34602);
  if (!port.ok()) return BadFlag(port.status());
  if (*port < 0 || *port > 65535) {
    return BadFlag(Status::InvalidArgument("--port must be in [0, 65535]"));
  }
  options.port = static_cast<uint16_t>(*port);
  const auto delay_ms = flags->TryGetDouble("delay-ms", 0);
  if (!delay_ms.ok()) return BadFlag(delay_ms.status());
  options.response_delay_seconds = *delay_ms / 1000.0;
  const auto exact_delay_ms = flags->TryGetDouble("exact-delay-ms", 0);
  if (!exact_delay_ms.ok()) return BadFlag(exact_delay_ms.status());
  if (*exact_delay_ms < 0) {
    return BadFlag(
        Status::InvalidArgument("--exact-delay-ms must be non-negative"));
  }
  options.exact_admission_delay_seconds = *exact_delay_ms / 1000.0;
  const auto refresh_interval = flags->TryGetDouble("refresh-interval", 0);
  if (!refresh_interval.ok()) return BadFlag(refresh_interval.status());
  if (*refresh_interval < 0) {
    return BadFlag(
        Status::InvalidArgument("--refresh-interval must be non-negative"));
  }
  const auto duration = flags->TryGetDouble("duration", 0);
  if (!duration.ok()) return BadFlag(duration.status());
  const auto stats_interval = flags->TryGetDouble("stats-interval", 0);
  if (!stats_interval.ok()) return BadFlag(stats_interval.status());
  if (*stats_interval < 0) {
    return BadFlag(
        Status::InvalidArgument("--stats-interval must be non-negative"));
  }

  OpaqConfig config;
  const auto run_size = flags->TryGetInt("run-size", config.run_size);
  if (!run_size.ok()) return BadFlag(run_size.status());
  const auto samples = flags->TryGetInt("samples", config.samples_per_run);
  if (!samples.ok()) return BadFlag(samples.status());
  const auto seed = flags->TryGetInt("seed", config.seed);
  if (!seed.ok()) return BadFlag(seed.status());
  config.run_size = static_cast<uint64_t>(*run_size);
  config.samples_per_run = static_cast<uint64_t>(*samples);
  config.seed = static_cast<uint64_t>(*seed);
  Status config_valid = config.Validate();
  if (!config_valid.ok()) return BadFlag(config_valid);

  QueryServer server(options);
  std::vector<ExportSpecEntry> all_entries = static_entries;
  all_entries.insert(all_entries.end(), live_entries.begin(),
                     live_entries.end());
  for (size_t i = 0; i < all_entries.size(); ++i) {
    const ExportSpecEntry& entry = all_entries[i];
    const bool watch = i >= static_entries.size();
    const std::string kind = watch ? "live session" : "session";
    WallTimer build_timer;
    Status served = ServeEntry(&server, entry, config, watch);
    if (!served.ok()) {
      return Fail(Status(served.code(), kind + " '" + entry.name + "': " +
                                            served.message()));
    }
    auto info = server.SessionInfo(entry.name);
    if (!info.ok()) return Fail(info.status());
    std::cout << kind << " " << entry.name << ": " << info->total_elements
              << " elements sketched to " << info->num_samples
              << " samples (max rank error " << info->max_rank_error
              << ") in " << build_timer.ElapsedSeconds() << " s"
              << (watch ? "; refreshes absorb new segments incrementally"
                        : "")
              << "\n";
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

  // Background epoch refresher: rebuild every session each interval and
  // swap atomically; queries keep being answered from the old epoch while
  // a build runs (--watch sessions refresh incrementally via Absorb).
  // Stopped via its own cv (the shutdown latch's pipe has exactly one
  // waiter: main).
  std::mutex refresh_mutex;
  std::condition_variable refresh_cv;
  bool refresh_stop = false;
  uint64_t refreshes = 0;
  std::thread refresher;
  if (*refresh_interval > 0) {
    refresher = std::thread([&] {
      std::unique_lock<std::mutex> lock(refresh_mutex);
      for (;;) {
        if (refresh_cv.wait_for(
                lock, std::chrono::duration<double>(*refresh_interval),
                [&] { return refresh_stop; })) {
          return;
        }
        lock.unlock();
        for (const ExportSpecEntry& entry : all_entries) {
          Status refreshed = server.Refresh(entry.name);
          if (!refreshed.ok()) {
            // The old epoch keeps serving; just log and retry next tick.
            std::cerr << "opaq_queryd: refresh of '" << entry.name
                      << "' failed (still serving the previous epoch): "
                      << refreshed.ToString() << std::endl;
          }
        }
        lock.lock();
        ++refreshes;
      }
    });
  }

  // Serve until --duration elapses or a signal arrives, whichever first
  // (printing stats every --stats-interval seconds on the way); either way
  // Stop() joins every connection thread and the final stats print.
  const bool signalled =
      ServeUntilShutdown(&server, *duration, *stats_interval, std::cout);
  if (refresher.joinable()) {
    {
      std::lock_guard<std::mutex> lock(refresh_mutex);
      refresh_stop = true;
    }
    refresh_cv.notify_all();
    refresher.join();
  }
  server.Stop();
  server.metrics_registry()->GetCounter("query.refreshes")->Set(refreshes);
  std::cout << (signalled ? "shutdown: signal received; final stats:\n"
                          : "shutdown: final stats:\n")
            << FormatStatsText(server.StatsSnapshot()) << std::flush;
  return 0;
}

}  // namespace
}  // namespace queryd
}  // namespace opaq

int main(int argc, char** argv) { return opaq::queryd::Main(argc, argv); }
