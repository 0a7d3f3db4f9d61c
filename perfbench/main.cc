// The repository benchmark: drives the OPAQ public API in-process over four
// workloads and prints every metric by name with its unit, checking every
// answer on the way. `perfbench/run.py` builds this binary and runs it.
//
//   opaq_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --work-dir=DIR [--scale=full|tiny] [--trace-out=PATH]
//
// With --trace=0 the final JSON line holds the end-to-end metrics, measured
// with every kind of tracing off. With --trace=1 it holds the per-layer
// metrics of a traced run, which also prints a per-layer self-time table
// and writes one Chrome trace-event file to --trace-out.
//
// Exit codes: 0 = every answer checked out; 1 = a wrong answer (the JSON
// line says correct=false); 2 = the run could not be carried out.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "perfbench/workloads.h"
#include "util/flags.h"

namespace opaq {
namespace perfbench {
namespace {

Status RunWorkload(const RunConfig& config, Report* report) {
  if (config.workload == "scan-uniform") return RunScanUniform(config, report);
  if (config.workload == "exact-zipf-extent") {
    return RunExactZipfExtent(config, report);
  }
  if (config.workload == "serve-live") return RunServeLive(config, report);
  if (config.workload == "remote-stream") {
    return RunRemoteStream(config, report);
  }
  return Status::InvalidArgument("unknown workload '" + config.workload +
                                 "'; expected scan-uniform, "
                                 "exact-zipf-extent, serve-live or "
                                 "remote-stream");
}

/// The self-time table of a traced run, and the `<layer>.self_frac`
/// metrics: each layer's share of all span time not covered by a child.
void ReportSelfTimes(Report* report) {
  const std::map<std::string, LayerTime> layers = LayerTimes();
  double self_total = 0;
  for (const auto& [name, time] : layers) self_total += time.self_ms;
  std::printf("%-10s %12s %12s %10s %8s\n", "layer", "total_ms", "self_ms",
              "spans", "self");
  for (const auto& [name, time] : layers) {
    const double share = self_total > 0 ? time.self_ms / self_total : 0;
    std::printf("%-10s %12.3f %12.3f %10llu %7.1f%%\n", name.c_str(),
                time.total_ms, time.self_ms,
                static_cast<unsigned long long>(time.spans), share * 100);
  }
  for (const char* layer : {"core", "io", "ingest", "net"}) {
    auto it = layers.find(layer);
    const double self = it == layers.end() ? 0 : it->second.self_ms;
    report->SetLayer(std::string(layer) + ".self_frac",
                     self_total > 0 ? self / self_total : 0);
  }
}

int Main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  const std::string build_type = OPAQ_PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "refusing to report numbers from a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.empty() ? "default" : build_type.c_str());
    return 2;
  }
  RunConfig config;
  config.workload = flags->GetString("workload", "");
  config.seed = static_cast<uint64_t>(flags->GetInt("seed", 1));
  config.seconds = flags->GetDouble("seconds", 10);
  config.trace = flags->GetInt("trace", 0) != 0;
  config.tiny = flags->GetString("scale", "full") == "tiny";
  config.work_dir = flags->GetString("work-dir", "");
  config.trace_out = flags->GetString("trace-out", "");
  if (config.work_dir.empty() || config.seconds <= 0) {
    std::fprintf(stderr, "--work-dir and a positive --seconds are required\n");
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(config.work_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", config.work_dir.c_str(),
                 error.message().c_str());
    return 2;
  }

  std::printf("build: %s, %s\n", build_type.c_str(), OPAQ_PERFBENCH_COMPILER);
  std::printf("workload: %s seed=%llu seconds=%g trace=%d scale=%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.tiny ? "tiny" : "full");
  std::fflush(stdout);

  SetTracing(false);
  Report report;
  const Status status = RunWorkload(config, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 2;
  }
  if (config.trace) {
    MeasureKernels(config, &report);
    ReportSelfTimes(&report);
    if (!config.trace_out.empty()) {
      const Status written = WriteChromeTrace(config.trace_out);
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
        return 2;
      }
      std::printf("trace: %s\n", config.trace_out.c_str());
    }
  }
  for (const std::string& note : report.notes()) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("failed_frac: %.6f (%llu of %llu ops)\n",
              report.attempted() == 0
                  ? 0.0
                  : static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  for (const std::string& failure : report.failures()) {
    std::printf("WRONG ANSWER: %s\n", failure.c_str());
  }
  std::printf("%s\n", report.Json(config.trace).c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace opaq

int main(int argc, char** argv) {
  return opaq::perfbench::Main(argc, argv);
}
