// opaq — command-line front end for the library (uint64 keys), written
// entirely against the public `include/opaq/` facade.
//
// A one-pass quantile workflow without writing any code:
//
//   opaq generate --out=data.opaq --n=10000000 --dist=zipf
//   opaq sketch   --data=data.opaq --out=data.sketch --samples=1024
//   opaq quantile --sketch=data.sketch --phi=0.5,0.99
//   opaq exact    --data=data.opaq --sketch=data.sketch --phi=0.5
//   opaq sketch   ... --trace=sketch.json  # per-stage spans, Chrome JSON
//   opaq rank     --sketch=data.sketch --value=123456
//   opaq merge    --out=all.sketch a.sketch b.sketch
//   opaq inspect  --sketch=data.sketch
//   opaq stats    127.0.0.1:34602        # live daemon metrics
//   opaq <command> --help
//
// Sketches persist the sorted sample list, so `sketch` once and query
// forever; `merge` folds in new data incrementally without rereading the
// old (paper §4).
//
// Datasets may live on one file or striped round-robin across several
// disks: pass `--stripes=D` (derives `PATH.s0..s{D-1}`) or explicit
// `--stripe-paths=/disk0/d.opaq,/disk1/d.opaq` to generate/sketch/exact,
// and the striped backend reads all stripes concurrently. `generate
// --compress=delta|zlib|raw` (optionally `--extent-size=N`) writes the
// compressed extent format instead; reads sniff the format, so
// sketch/exact take compressed and uncompressed files alike, and `sketch`
// reports pack/unpack accounting for compressed inputs. Or they live on
// remote `opaq_noded` data nodes: `sketch`/`exact` take
// `--remote=host:port/ds[,host2:port2/ds2,...]` instead of `--data`, with
// several specs forming one multi-shard Engine run (one shard per node).
//
// Every subcommand's flags live in ONE table (kCommands below) that drives
// flag lookup defaults, unknown-flag rejection, and the generated --help
// text, so the three can never drift apart.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "opaq/opaq.h"

namespace opaq {
namespace cli {
namespace {

using Key = uint64_t;
using Request = QueryRequest<Key>;

// ------------------------------------------------------------ flag table ----

/// How a flag's text value must parse. Typed entries are pre-validated by
/// `ValidateFlags` before any handler runs, so `--n=` or `--budget=lots`
/// is a usage error (help + exit 2), never an abort inside a getter.
enum class FlagType { kString, kInt, kDouble };

/// One flag of one subcommand: its name (dash style), its default as text
/// ("" = no default), the config field or call it maps to, a one-line
/// description, whether the command refuses to run without it, and how its
/// value must parse. This table is the single source of truth — lookup
/// defaults, validation, and --help are all generated from it.
struct FlagSpec {
  const char* name;
  const char* def;
  const char* maps_to;
  const char* help;
  bool required = false;
  FlagType type = FlagType::kString;
};

class CommandFlags;
int CmdGenerate(const CommandFlags& flags);
int CmdAppend(const CommandFlags& flags);
int CmdSketch(const CommandFlags& flags);
int CmdQuantile(const CommandFlags& flags);
int CmdExact(const CommandFlags& flags);
int CmdRank(const CommandFlags& flags);
int CmdMerge(const CommandFlags& flags);
int CmdInspect(const CommandFlags& flags);
int CmdStats(const CommandFlags& flags);
int RunTraced(const CommandFlags& flags,
              int (*command)(const CommandFlags& flags));

struct CommandSpec {
  const char* name;
  const char* summary;
  const char* positional;  // e.g. "IN1 IN2 [IN3 ...]"; nullptr if none
  std::vector<FlagSpec> flags;
  int (*run)(const CommandFlags& flags) = nullptr;
};

std::vector<FlagSpec> Concat(std::vector<FlagSpec> a,
                             const std::vector<FlagSpec>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Striping flags shared by every command that opens/creates a dataset.
std::vector<FlagSpec> StripeFlags() {
  return {
      {"stripes", "1", "stripe count D",
       "lay the dataset out across D stripe files PATH.s0..PATH.s{D-1}",
       false, FlagType::kInt},
      {"stripe-paths", "", "per-disk stripe files",
       "comma-separated stripe file list (overrides --stripes derivation)"},
  };
}

/// Remote-backend flag shared by the scanning commands: datasets served by
/// `opaq_noded` data nodes instead of local files.
std::vector<FlagSpec> RemoteFlags() {
  return {
      {"remote", "", "remote data-node shards",
       "comma-separated host:port/dataset specs (replaces --data; several "
       "specs = one Engine shard per node)"},
      {"node-compute", "1", "NodeClientOptions::node_compute",
       "0 = skip node-side compute and stream the dataset instead "
       "(packed extents when the node stores it compressed)",
       false, FlagType::kInt},
  };
}

/// Compressed-extent flags of `generate`: they switch the output to the
/// compressed extent format. Extent files are self-describing, so the
/// scanning commands take codec and geometry from the file itself.
std::vector<FlagSpec> ExtentFlags() {
  return {
      {"compress", "", "ExtentWriterOptions::codec",
       "write the dataset as compressed extents: raw | delta | zlib "
       "(reading auto-detects the format; omit for uncompressed output)"},
      {"extent-size", "65536", "ExtentWriterOptions::extent_elements",
       "elements per extent (the unit of compression and prefetch) when "
       "writing compressed extents",
       false, FlagType::kInt},
  };
}

/// I/O-mode flags shared by the scanning commands (sketch, exact).
std::vector<FlagSpec> IoFlags() {
  return {
      {"io-mode", "sync", "OpaqConfig::io_mode",
       "sync = alternate read/compute; async = prefetch on background "
       "thread(s)"},
      {"prefetch-depth", "2", "OpaqConfig::prefetch_depth",
       "prefetch buffers (runs, chunks per stripe, or extents) in flight "
       "under async",
       false, FlagType::kInt},
      {"run-size", "1048576", "OpaqConfig::run_size",
       "elements per run (m): how many keys are memory-resident at once",
       false, FlagType::kInt},
  };
}

/// Trace export shared by the scanning commands (sketch, exact).
std::vector<FlagSpec> TraceFlags() {
  return {
      {"trace", "", "FlightRecorder::ChromeTraceJson",
       "arm the flight recorder and write its spans (run_read, sample, "
       "merge, exact_pass, ...) to this path as Chrome trace-event JSON on "
       "exit (load in chrome://tracing or Perfetto)"},
  };
}

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"generate",
       "write a synthetic dataset to a data file (or striped file set)",
       nullptr,
       Concat(
           {
               {"out", "", "output data file", "path of the data file", true},
               {"n", "1000000", "DatasetSpec::n", "number of keys", false,
                FlagType::kInt},
               {"dist", "uniform", "DatasetSpec::distribution",
                "uniform | zipf | normal | sequential"},
               {"seed", "42", "DatasetSpec::seed",
                "generator seed (one spec + seed => bit-identical data)",
                false, FlagType::kInt},
               {"dup", "0.1", "DatasetSpec::duplicate_fraction",
                "fraction of duplicated keys (uniform/normal)", false,
                FlagType::kDouble},
               {"zipf-z", "0.86", "DatasetSpec::zipf_z",
                "zipf skew z (1 = uniform, 0 = max skew)", false,
                FlagType::kDouble},
               {"chunk", "65536", "stripe chunk elements",
                "round-robin chunk size when striping", false,
                FlagType::kInt},
               {"force", "", "overwrite permission",
                "overwrite existing output files (without it, generate "
                "refuses to clobber a dataset — a live dataset may have a "
                "writer appending to it)"},
           },
           Concat(ExtentFlags(), StripeFlags())),
       CmdGenerate},
      {"append",
       "append a synthetic batch to a live (appendable) dataset as one "
       "durable segment",
       nullptr,
       {
           {"live", "", "live dataset directory",
            "local live dataset directory (created on first append)"},
           {"remote", "", "remote live dataset",
            "host:port/dataset of an opaq_noded --live export (appends "
            "over the wire; replaces --live)"},
           {"n", "100000", "DatasetSpec::n", "number of keys to append",
            false, FlagType::kInt},
           {"dist", "uniform", "DatasetSpec::distribution",
            "uniform | zipf | normal | sequential"},
           {"seed", "42", "DatasetSpec::seed",
            "generator seed (vary per batch or every segment repeats)",
            false, FlagType::kInt},
           {"dup", "0.1", "DatasetSpec::duplicate_fraction",
            "fraction of duplicated keys (uniform/normal)", false,
            FlagType::kDouble},
           {"zipf-z", "0.86", "DatasetSpec::zipf_z",
            "zipf skew z (1 = uniform, 0 = max skew)", false,
            FlagType::kDouble},
           {"pack", "", "LiveDatasetOptions::pack/codec",
            "store the new segment extent-packed: raw | delta | zlib "
            "(local --live only; segments mix freely with plain ones)"},
       },
       CmdAppend},
      {"sketch",
       "one-pass sample phase: stream a dataset into a persistent sketch",
       nullptr,
       Concat(
           {
               {"data", "", "input data file",
                "dataset to sketch (or --remote)"},
               {"out", "", "output sketch file",
                "where to persist the sorted sample list", true},
               {"samples", "1024", "OpaqConfig::samples_per_run",
                "samples kept per run (s): accuracy ~ n/s", false,
                FlagType::kInt},
               {"select", "intro", "OpaqConfig::select_algorithm",
                "intro | fr | mom | std (selection algorithm)"},
           },
           Concat(RemoteFlags(),
                  Concat(IoFlags(), Concat(StripeFlags(), TraceFlags())))),
       [](const CommandFlags& flags) { return RunTraced(flags, CmdSketch); }},
      {"quantile",
       "certified quantile brackets from a sketch (no data access)",
       nullptr,
       {
           {"sketch", "", "input sketch file", "sketch to query", true},
           {"phi", "", "quantile fractions",
            "comma-separated phi list in (0, 1], e.g. 0.5,0.99"},
           {"q", "10", "equi-quantile count",
            "when --phi is absent: the q-1 equi-spaced quantiles", false,
            FlagType::kInt},
       },
       CmdQuantile},
      {"exact",
       "recover exact quantile values with one extra data pass (paper §4)",
       nullptr,
       Concat(
           {
               {"data", "", "input data file",
                "dataset the sketch came from (or --remote)"},
               {"sketch", "", "input sketch file", "sketch to query", true},
               {"phi", "", "quantile fractions",
                "comma-separated phi list in (0, 1]"},
               {"q", "10", "equi-quantile count",
                "when --phi is absent: the q-1 equi-spaced quantiles", false,
                FlagType::kInt},
               {"budget", "0", "QuerySession::set_exact_memory_budget",
                "max bracket elements held in memory "
                "(0 = 4*q*max_rank_error; raise for duplicate-heavy data)",
                false, FlagType::kInt},
           },
           Concat(RemoteFlags(),
                  Concat(IoFlags(), Concat(StripeFlags(), TraceFlags())))),
       [](const CommandFlags& flags) { return RunTraced(flags, CmdExact); }},
      {"rank",
       "certified rank bracket of an arbitrary value (no data access)",
       nullptr,
       {
           {"sketch", "", "input sketch file", "sketch to query", true},
           {"value", "", "probe value", "the key whose rank to bracket",
            true, FlagType::kInt},
       },
       CmdRank},
      {"merge",
       "fold several sketches into one (incremental maintenance, paper §4)",
       "IN1 IN2 [IN3 ...]",
       {
           {"out", "", "output sketch file", "where to write the merge",
            true},
       },
       CmdMerge},
      {"inspect",
       "print a sketch's accounting and certificates",
       nullptr,
       {
           {"sketch", "", "input sketch file", "sketch to describe", true},
       },
       CmdInspect},
      {"stats",
       "fetch a live daemon's metrics snapshot over the wire (STATS)",
       "HOST:PORT",
       {
           {"format", "text", "output rendering",
            "text (aligned name/value rows) | prometheus (text exposition "
            "for scraping)"},
       },
       CmdStats},
  };
  return kCommands;
}

/// Flag access bound to one command's table: defaults come from the table,
/// and asking for a flag the table does not declare dies loudly (catching
/// code/table drift in the smoke tests).
class CommandFlags {
 public:
  CommandFlags(const Flags& flags, const CommandSpec& spec)
      : flags_(flags), spec_(spec) {}

  int64_t GetInt(const char* name) const {
    return flags_.GetInt(name, std::strtoll(Spec(name).def, nullptr, 10));
  }
  double GetDouble(const char* name) const {
    return flags_.GetDouble(name, std::strtod(Spec(name).def, nullptr));
  }
  std::string GetString(const char* name) const {
    return flags_.GetString(name, Spec(name).def);
  }
  bool Has(const char* name) const {
    Spec(name);  // declared?
    return flags_.Has(name);
  }
  const Flags& raw() const { return flags_; }

 private:
  const FlagSpec& Spec(const char* name) const {
    const FlagSpec* found = nullptr;
    for (const FlagSpec& flag : spec_.flags) {
      if (std::strcmp(flag.name, name) == 0) found = &flag;
    }
    OPAQ_CHECK(found != nullptr)
        << "flag --" << name << " is not in command '" << spec_.name
        << "'s flag table";
    return *found;
  }

  const Flags& flags_;
  const CommandSpec& spec_;
};

/// Rejects flags the command's table does not declare, refuses to run
/// without the table's required flags, and parse-checks every provided
/// numeric value — up front, before any data access, so the CommandFlags
/// getters below can never abort on user input.
Status ValidateFlags(const Flags& flags, const CommandSpec& spec) {
  for (const std::string& key : flags.keys()) {
    if (key == "help") continue;
    bool known = false;
    for (const FlagSpec& flag : spec.flags) {
      if (key == flag.name) known = true;
    }
    if (!known) {
      return Status::InvalidArgument(
          "unknown flag --" + key + " for '" + spec.name +
          "'; see: opaq " + spec.name + " --help");
    }
  }
  for (const FlagSpec& flag : spec.flags) {
    if (flag.required && !flags.Has(flag.name)) {
      return Status::InvalidArgument(
          "'" + std::string(spec.name) + "' needs --" + flag.name + " (" +
          flag.maps_to + "); see: opaq " + spec.name + " --help");
    }
    if (!flags.Has(flag.name)) continue;
    if (flag.type == FlagType::kInt) {
      auto value = flags.TryGetInt(flag.name, 0);
      if (!value.ok()) return value.status();
    } else if (flag.type == FlagType::kDouble) {
      auto value = flags.TryGetDouble(flag.name, 0.0);
      if (!value.ok()) return value.status();
    }
  }
  // positional()[0] is the command itself; anything further is only legal
  // for commands whose spec declares positionals (merge's input sketches).
  if (spec.positional == nullptr && flags.positional().size() > 1) {
    return Status::InvalidArgument(
        "'" + std::string(spec.name) + "' takes no positional arguments "
        "(got '" + flags.positional()[1] + "'); did you mean a --flag? "
        "see: opaq " + spec.name + " --help");
  }
  return Status::OK();
}

void PrintCommandHelp(const CommandSpec& spec, std::ostream& os) {
  os << "usage: opaq " << spec.name;
  if (!spec.flags.empty()) os << " [flags]";
  if (spec.positional != nullptr) os << " " << spec.positional;
  os << "\n  " << spec.summary << "\n";
  if (spec.flags.empty()) return;
  os << "\nflags (default -> what it sets):\n";
  size_t width = 0;
  auto label = [](const FlagSpec& flag) {
    return "--" + std::string(flag.name) + "=" +
           (flag.def[0] == '\0' ? "..." : flag.def);
  };
  for (const FlagSpec& flag : spec.flags) {
    width = std::max(width, label(flag).size());
  }
  for (const FlagSpec& flag : spec.flags) {
    std::string head = label(flag);
    os << "  " << head << std::string(width - head.size() + 2, ' ')
       << flag.maps_to
       << (flag.required ? "  (required)" : "") << "\n"
       << std::string(width + 4, ' ') << flag.help << "\n";
  }
}

int Usage(std::ostream& os = std::cerr, int code = 2) {
  os << "usage: opaq <command> [flags]\n\ncommands:\n";
  size_t width = 0;
  for (const CommandSpec& spec : Commands()) {
    width = std::max(width, std::string(spec.name).size());
  }
  for (const CommandSpec& spec : Commands()) {
    os << "  " << spec.name
       << std::string(width - std::string(spec.name).size() + 2, ' ')
       << spec.summary << "\n";
  }
  os << "\nrun `opaq <command> --help` for that command's flag table.\n"
     << "striping: --stripes=D spreads/reads PATH.s0..PATH.s{D-1};\n"
     << "--stripe-paths lists the per-disk stripe files explicitly.\n"
     << "remote: sketch/exact read opaq_noded data nodes via\n"
     << "--remote=host:port/dataset[,...] instead of --data.\n";
  return code;
}

// -------------------------------------------------------------- commands ----

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << std::endl;
  return 1;
}

/// Runs `command` with the flight recorder armed only when --trace=PATH is
/// given, then writes the retained spans to PATH, whether or not the
/// command succeeded.
int RunTraced(const CommandFlags& flags,
              int (*command)(const CommandFlags& flags)) {
  const std::string path = flags.GetString("trace");
  FlightRecorder::Global().set_enabled(!path.empty());
  const int code = command(flags);
  if (path.empty()) return code;
  std::ofstream out(path, std::ios::trunc);
  out << FlightRecorder::Global().ChromeTraceJson() << "\n";
  out.close();
  if (!out) return Fail(Status::IoError("cannot write trace " + path));
  return code;
}

Result<std::vector<double>> ParsePhis(const CommandFlags& flags) {
  std::vector<double> phis;
  if (flags.Has("phi")) {
    std::stringstream ss(flags.GetString("phi"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      char* end = nullptr;
      double phi = std::strtod(item.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(phi > 0.0 && phi <= 1.0)) {
        return Status::InvalidArgument("bad --phi entry: " + item);
      }
      phis.push_back(phi);
    }
  } else {
    int64_t q = flags.GetInt("q");
    if (q < 2) return Status::InvalidArgument("--q must be >= 2");
    for (int64_t i = 1; i < q; ++i) {
      phis.push_back(static_cast<double>(i) / static_cast<double>(q));
    }
  }
  if (phis.empty()) return Status::InvalidArgument("no quantiles requested");
  return phis;
}

Result<std::unique_ptr<FileBlockDevice>> OpenFileDevice(
    const std::string& path, FileBlockDevice::Mode mode) {
  if (path.empty()) {
    return Status::InvalidArgument("missing a required file path flag");
  }
  return FileBlockDevice::Make(path, mode);
}

/// Resolves the stripe layout of `base_path` from --stripes/--stripe-paths.
/// Returns an empty vector for the plain single-file layout.
Result<std::vector<std::string>> StripePaths(const CommandFlags& flags,
                                             const std::string& base_path) {
  std::vector<std::string> paths;
  if (flags.Has("stripe-paths")) {
    std::stringstream ss(flags.GetString("stripe-paths"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) {
        return Status::InvalidArgument("empty entry in --stripe-paths");
      }
      paths.push_back(item);
    }
    if (paths.empty()) {
      return Status::InvalidArgument("--stripe-paths names no files");
    }
    if (flags.Has("stripes") &&
        flags.GetInt("stripes") != static_cast<int64_t>(paths.size())) {
      return Status::InvalidArgument(
          "--stripes disagrees with the number of --stripe-paths entries");
    }
    return paths;
  }
  const int64_t stripes = flags.GetInt("stripes");
  if (stripes < 1 || static_cast<uint64_t>(stripes) > kMaxStripes) {
    return Status::InvalidArgument("--stripes must be in [1, " +
                                   std::to_string(kMaxStripes) + "]");
  }
  if (stripes == 1) return paths;  // plain layout
  if (base_path.empty()) {
    return Status::InvalidArgument("missing a required file path flag");
  }
  for (int64_t s = 0; s < stripes; ++s) {
    paths.push_back(base_path + ".s" + std::to_string(s));
  }
  return paths;
}

/// Opens the dataset(s) the scanning flags name — local (--data, plain or
/// striped per the striping flags) or served by data nodes (--remote, one
/// Engine shard per comma-separated host:port/dataset spec) — as
/// self-contained `Source` shards.
Result<std::vector<Source<Key>>> OpenDataSources(const CommandFlags& flags) {
  const bool remote = flags.Has("remote");
  const std::string path = flags.GetString("data");
  if (remote && !path.empty()) {
    return Status::InvalidArgument(
        "--data and --remote are mutually exclusive; the dataset lives "
        "either on local files or on data nodes");
  }
  if (remote && (flags.Has("stripes") || flags.Has("stripe-paths"))) {
    return Status::InvalidArgument(
        "striping flags describe local --data layouts; a remote dataset's "
        "layout (plain or striped) is the serving node's concern");
  }
  std::vector<Source<Key>> sources;
  if (remote) {
    NodeClientOptions client_options;
    client_options.node_compute = flags.GetInt("node-compute") != 0;
    std::stringstream ss(flags.GetString("remote"));
    std::string spec;
    while (std::getline(ss, spec, ',')) {
      if (spec.empty()) {
        return Status::InvalidArgument("empty entry in --remote");
      }
      auto source = Source<Key>::OpenRemote(spec, client_options);
      if (!source.ok()) {
        return Status(source.status().code(),
                      spec + ": " + source.status().message());
      }
      sources.push_back(std::move(source).value());
    }
    if (sources.empty()) {
      return Status::InvalidArgument("--remote names no data nodes");
    }
    return sources;
  }
  OPAQ_ASSIGN_OR_RETURN(std::vector<std::string> paths,
                        StripePaths(flags, path));
  if (paths.empty()) {
    if (path.empty()) {
      return Status::InvalidArgument(
          "need --data (a local dataset) or --remote (data-node shards)");
    }
    paths.push_back(path);
  }
  auto source = Source<Key>::Open(paths);
  if (!source.ok()) return source.status();
  sources.push_back(std::move(source).value());
  return sources;
}

Result<SampleList<Key>> LoadSketch(const CommandFlags& flags) {
  auto device = OpenFileDevice(flags.GetString("sketch"),
                               FileBlockDevice::Mode::kOpen);
  if (!device.ok()) return device.status();
  return LoadSampleList<Key>(device->get());
}

/// The synthetic-data flags `generate` and `append` share.
Result<DatasetSpec> ParseDatasetSpec(const CommandFlags& flags) {
  DatasetSpec spec;
  spec.n = static_cast<uint64_t>(flags.GetInt("n"));
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  spec.duplicate_fraction = flags.GetDouble("dup");
  spec.zipf_z = flags.GetDouble("zipf-z");
  const std::string dist = flags.GetString("dist");
  if (dist == "uniform") {
    spec.distribution = Distribution::kUniform;
  } else if (dist == "zipf") {
    spec.distribution = Distribution::kZipf;
  } else if (dist == "normal") {
    spec.distribution = Distribution::kNormal;
  } else if (dist == "sequential") {
    spec.distribution = Distribution::kSequential;
  } else {
    return Status::InvalidArgument("unknown --dist: " + dist);
  }
  return spec;
}

/// `generate` refuses to clobber existing datasets unless --force: the
/// create mode truncates, which silently destroys whatever was there — in
/// particular a live dataset another writer is appending to.
Status RefuseOverwrite(const CommandFlags& flags,
                       const std::vector<std::string>& outputs) {
  if (flags.Has("force")) return Status::OK();
  for (const std::string& path : outputs) {
    if (LivePathExists(path)) {
      return Status::FailedPrecondition(
          path + " already exists; generate would truncate it — pass "
          "--force to overwrite");
    }
  }
  return Status::OK();
}

int CmdGenerate(const CommandFlags& flags) {
  auto parsed_spec = ParseDatasetSpec(flags);
  if (!parsed_spec.ok()) return Fail(parsed_spec.status());
  const DatasetSpec spec = *parsed_spec;
  auto paths = StripePaths(flags, flags.GetString("out"));
  if (!paths.ok()) return Fail(paths.status());
  WallTimer timer;
  // --compress (or an explicit --extent-size) switches the output to the
  // compressed extent format; one writer covers plain and striped layouts.
  if (flags.Has("compress") || flags.Has("extent-size")) {
    auto codec = ParseExtentCodec(
        flags.Has("compress") ? flags.GetString("compress") : "raw");
    if (!codec.ok()) return Fail(codec.status());
    ExtentWriterOptions options;
    options.codec = *codec;
    const int64_t extent_size = flags.GetInt("extent-size");
    if (extent_size < 1) {
      return Fail(Status::InvalidArgument("--extent-size must be >= 1"));
    }
    options.extent_elements = static_cast<uint64_t>(extent_size);
    std::vector<std::string> files =
        paths->empty() ? std::vector<std::string>{flags.GetString("out")}
                       : *paths;
    Status guard = RefuseOverwrite(flags, files);
    if (!guard.ok()) return Fail(guard);
    std::vector<std::unique_ptr<FileBlockDevice>> devices;
    std::vector<BlockDevice*> raw;
    for (const std::string& path : files) {
      auto device = OpenFileDevice(path, FileBlockDevice::Mode::kCreate);
      if (!device.ok()) return Fail(device.status());
      devices.push_back(std::move(device).value());
      raw.push_back(devices.back().get());
    }
    auto stats = WriteExtents<Key>(GenerateDataset<Key>(spec),
                                   std::move(raw), options);
    if (!stats.ok()) return Fail(stats.status());
    for (auto& device : devices) {
      Status s = device->Sync();
      if (!s.ok()) return Fail(s);
    }
    std::cout << "wrote " << spec.ToString() << " as " << stats->extents
              << " extents (codec " << ExtentCodecName(*codec) << ", "
              << options.extent_elements << " elements each"
              << (files.size() > 1
                      ? ", " + std::to_string(files.size()) + " stripes"
                      : "")
              << ") to " << files.front() << " in "
              << timer.ElapsedSeconds() << "s\n"
              << "packed " << stats->unpacked_bytes << " bytes into "
              << stats->packed_bytes << " stored bytes (ratio "
              << stats->ratio() << ")\n";
    return 0;
  }
  if (paths->empty()) {
    Status guard = RefuseOverwrite(flags, {flags.GetString("out")});
    if (!guard.ok()) return Fail(guard);
    auto device = OpenFileDevice(flags.GetString("out"),
                                 FileBlockDevice::Mode::kCreate);
    if (!device.ok()) return Fail(device.status());
    Status s = GenerateDatasetToDevice<Key>(spec, device->get());
    if (!s.ok()) return Fail(s);
    std::cout << "wrote " << spec.ToString() << " to "
              << flags.GetString("out") << " in "
              << timer.ElapsedSeconds() << "s\n";
    return 0;
  }
  const int64_t chunk = flags.GetInt("chunk");
  if (chunk < 1) return Fail(Status::InvalidArgument("--chunk must be >= 1"));
  Status guard = RefuseOverwrite(flags, *paths);
  if (!guard.ok()) return Fail(guard);
  std::vector<std::unique_ptr<FileBlockDevice>> devices;
  std::vector<BlockDevice*> raw;
  for (const std::string& path : *paths) {
    auto device = OpenFileDevice(path, FileBlockDevice::Mode::kCreate);
    if (!device.ok()) return Fail(device.status());
    devices.push_back(std::move(device).value());
    raw.push_back(devices.back().get());
  }
  auto file = WriteStriped(GenerateDataset<Key>(spec), std::move(raw),
                           static_cast<uint64_t>(chunk));
  if (!file.ok()) return Fail(file.status());
  for (auto& device : devices) {
    Status s = device->Sync();
    if (!s.ok()) return Fail(s);
  }
  std::cout << "wrote " << spec.ToString() << " as " << file->ToString()
            << " across " << paths->front() << ".." << paths->back()
            << " in " << timer.ElapsedSeconds() << "s\n";
  return 0;
}

int CmdAppend(const CommandFlags& flags) {
  const bool local = flags.Has("live");
  const bool remote = flags.Has("remote");
  if (local == remote) {
    return Fail(Status::InvalidArgument(
        "append needs exactly one of --live (a local live dataset "
        "directory) or --remote (an opaq_noded --live export)"));
  }
  auto parsed_spec = ParseDatasetSpec(flags);
  if (!parsed_spec.ok()) return Fail(parsed_spec.status());
  const DatasetSpec spec = *parsed_spec;
  if (spec.n == 0) {
    return Fail(Status::InvalidArgument("--n must be >= 1"));
  }
  WallTimer timer;
  std::vector<Key> batch = GenerateDataset<Key>(spec);
  if (remote) {
    if (flags.Has("pack")) {
      return Fail(Status::InvalidArgument(
          "--pack is a local layout choice; the serving node decides how a "
          "remote live dataset stores its segments"));
    }
    auto remote_spec = ParseRemoteSpec(flags.GetString("remote"));
    if (!remote_spec.ok()) return Fail(remote_spec.status());
    auto client = NodeClient::Connect(remote_spec->host, remote_spec->port);
    if (!client.ok()) return Fail(client.status());
    auto ack = client->Append(remote_spec->dataset, batch.data(),
                              batch.size(), sizeof(Key));
    if (!ack.ok()) return Fail(ack.status());
    std::cout << "appended " << spec.ToString() << " to "
              << remote_spec->ToString() << " in " << timer.ElapsedSeconds()
              << "s; node now holds " << ack->total_elements
              << " elements in " << ack->num_segments << " segments\n";
    return 0;
  }
  LiveDatasetOptions options;
  if (flags.Has("pack")) {
    auto codec = ParseExtentCodec(flags.GetString("pack"));
    if (!codec.ok()) return Fail(codec.status());
    options.pack = true;
    options.codec = *codec;
  }
  auto dataset =
      LiveDataset<Key>::OpenOrCreate(flags.GetString("live"), options);
  if (!dataset.ok()) return Fail(dataset.status());
  Status s = dataset->Append(batch);
  if (!s.ok()) return Fail(s);
  std::cout << "appended " << spec.ToString() << " to "
            << flags.GetString("live") << " in " << timer.ElapsedSeconds()
            << "s; live dataset now holds " << dataset->total_elements()
            << " elements in " << dataset->num_segments() << " segments\n";
  return 0;
}

/// Builds the OpaqConfig the scanning commands share (sketch, exact).
Result<OpaqConfig> ScanConfig(const CommandFlags& flags,
                              const std::vector<Source<Key>>& sources) {
  OpaqConfig config;
  config.run_size = static_cast<uint64_t>(flags.GetInt("run-size"));
  auto parsed_mode = ParseIoMode(flags.GetString("io-mode"));
  if (!parsed_mode.ok()) return parsed_mode.status();
  config.io_mode = *parsed_mode;
  config.prefetch_depth =
      static_cast<uint64_t>(flags.GetInt("prefetch-depth"));
  for (const Source<Key>& source : sources) {
    config.stripes = std::max<uint64_t>(config.stripes, source.stripes());
  }
  return config;
}

int CmdSketch(const CommandFlags& flags) {
  auto sources = OpenDataSources(flags);
  if (!sources.ok()) return Fail(sources.status());
  auto config = ScanConfig(flags, *sources);
  if (!config.ok()) return Fail(config.status());
  config->samples_per_run = static_cast<uint64_t>(flags.GetInt("samples"));
  const std::string select = flags.GetString("select");
  if (select == "intro") {
    config->select_algorithm = SelectAlgorithm::kIntroSelect;
  } else if (select == "fr") {
    config->select_algorithm = SelectAlgorithm::kFloydRivest;
  } else if (select == "mom") {
    config->select_algorithm = SelectAlgorithm::kMedianOfMedians;
  } else if (select == "std") {
    config->select_algorithm = SelectAlgorithm::kStdNthElement;
  } else {
    return Fail(Status::InvalidArgument("unknown --select: " + select));
  }

  WallTimer timer;
  Engine<Key> engine(*config, *sources);
  auto session = engine.Build();
  if (!session.ok()) return Fail(session.status());
  const SampleList<Key>& list = session->sample_list();

  auto out_device = OpenFileDevice(flags.GetString("out"),
                                   FileBlockDevice::Mode::kCreate);
  if (!out_device.ok()) return Fail(out_device.status());
  Status s = SaveSampleList(list, out_device->get());
  if (!s.ok()) return Fail(s);
  std::cout << "sketched " << list.total_elements() << " keys ("
            << list.accounting().num_runs << " runs, "
            << list.samples().size() << " samples) in "
            << timer.ElapsedSeconds() << "s ("
            << engine.stats().io_stall_seconds << "s "
            << (config->io_mode == IoMode::kAsync ? "I/O stall, async"
                                                  : "I/O")
            << (config->stripes > 1
                    ? ", " + std::to_string(config->stripes) + " stripes"
                    : "")
            << (sources->size() > 1
                    ? ", " + std::to_string(sources->size()) +
                          " remote shards"
                    : "")
            << "); rank error <= " << session->max_rank_error() << "\n";
  // Pack/unpack accounting (nonzero only over compressed-extent shards):
  // how many bytes would have moved uncompressed vs how many actually did.
  const ExtentStatsSnapshot& pack = engine.stats().extents;
  if (pack.extents > 0) {
    std::cout << "extents: unpacked " << pack.packed_bytes
              << " stored bytes into " << pack.unpacked_bytes
              << " logical bytes (ratio " << pack.ratio() << "; "
              << pack.extents << " extents:";
    for (size_t c = 0; c < kNumExtentCodecs; ++c) {
      if (pack.extents_by_codec[c] == 0) continue;
      std::cout << " " << pack.extents_by_codec[c] << " "
                << ExtentCodecName(static_cast<uint16_t>(c));
    }
    std::cout << ")\n";
  }
  return 0;
}

int CmdQuantile(const CommandFlags& flags) {
  auto list = LoadSketch(flags);
  if (!list.ok()) return Fail(list.status());
  auto phis = ParsePhis(flags);
  if (!phis.ok()) return Fail(phis.status());
  QuerySession<Key> session(std::move(list).value());
  std::vector<Request> requests;
  for (double phi : *phis) requests.push_back(Request::Quantile(phi));
  auto results = session.Query(requests);
  if (!results.ok()) return Fail(results.status());
  std::cout << "phi\trank\tlower\tupper\n";
  for (size_t i = 0; i < phis->size(); ++i) {
    const QuantileEstimate<Key>& e = results->results[i].estimates[0];
    std::cout << (*phis)[i] << "\t" << e.target_rank << "\t" << e.lower
              << (e.lower_clamped ? "?" : "") << "\t" << e.upper
              << (e.upper_clamped ? "?" : "") << "\n";
  }
  std::cout << "(rank error <= " << results->max_rank_error
            << "; '?' marks a clamped, uncertified bound)\n";
  return 0;
}

int CmdExact(const CommandFlags& flags) {
  auto list = LoadSketch(flags);
  if (!list.ok()) return Fail(list.status());
  auto sources = OpenDataSources(flags);
  if (!sources.ok()) return Fail(sources.status());
  auto phis = ParsePhis(flags);
  if (!phis.ok()) return Fail(phis.status());
  auto config = ScanConfig(flags, *sources);
  if (!config.ok()) return Fail(config.status());
  // samples_per_run = 1 neutralizes the divisibility rule the second pass
  // does not have, while still validating the raw flag values cleanly.
  config->samples_per_run = 1;
  Status valid = config->Validate();
  if (!valid.ok()) return Fail(valid);

  // One batched query, every request exact: all quantiles share ONE pass.
  QuerySession<Key> session(std::move(list).value(), *sources, *config);
  const int64_t budget = flags.GetInt("budget");
  if (budget < 0) {
    return Fail(Status::InvalidArgument(
        "--budget must be >= 0 (0 = the default 4*q*max_rank_error)"));
  }
  session.set_exact_memory_budget(static_cast<uint64_t>(budget));
  std::vector<Request> requests;
  for (double phi : *phis) {
    requests.push_back(Request::Quantile(phi, /*exact=*/true));
  }
  auto results = session.Query(requests);
  if (!results.ok()) return Fail(results.status());
  std::cout << "phi\texact\n";
  for (size_t i = 0; i < phis->size(); ++i) {
    std::cout << (*phis)[i] << "\t" << results->results[i].exact[0] << "\n";
  }
  return 0;
}

int CmdRank(const CommandFlags& flags) {
  auto list = LoadSketch(flags);
  if (!list.ok()) return Fail(list.status());
  // --value presence is enforced by ValidateFlags (the table marks it
  // required).
  const Key value = static_cast<Key>(flags.GetInt("value"));
  QuerySession<Key> session(std::move(list).value());
  auto results = session.Query({Request::RankOf(value)});
  if (!results.ok()) return Fail(results.status());
  const RankEstimate& r = results->results[0].rank;
  std::cout << "value " << value << ": rank(<=) in [" << r.min_rank_le
            << ", " << r.max_rank_le << "], rank(<) in [" << r.min_rank_lt
            << ", " << r.max_rank_lt << "] of " << results->total_elements
            << "\n";
  return 0;
}

int CmdMerge(const CommandFlags& flags) {
  if (flags.raw().positional().size() < 3) {  // "merge" + >= 2 inputs
    return Fail(Status::InvalidArgument("merge needs >= 2 input sketches"));
  }
  SampleList<Key> merged;
  for (size_t i = 1; i < flags.raw().positional().size(); ++i) {
    auto device = OpenFileDevice(flags.raw().positional()[i],
                                 FileBlockDevice::Mode::kOpen);
    if (!device.ok()) return Fail(device.status());
    auto list = LoadSampleList<Key>(device->get());
    if (!list.ok()) return Fail(list.status());
    auto combined = SampleList<Key>::Merge(merged, *list);
    if (!combined.ok()) return Fail(combined.status());
    merged = std::move(combined).value();
  }
  auto out = OpenFileDevice(flags.GetString("out"),
                            FileBlockDevice::Mode::kCreate);
  if (!out.ok()) return Fail(out.status());
  Status s = SaveSampleList(merged, out->get());
  if (!s.ok()) return Fail(s);
  std::cout << "merged " << flags.raw().positional().size() - 1
            << " sketches: " << merged.total_elements() << " keys, "
            << merged.samples().size() << " samples\n";
  return 0;
}

int CmdInspect(const CommandFlags& flags) {
  auto list = LoadSketch(flags);
  if (!list.ok()) return Fail(list.status());
  const SampleAccounting& acc = list->accounting();
  std::cout << "sketch: " << flags.GetString("sketch") << "\n"
            << "  total elements : " << acc.total_elements << "\n"
            << "  runs           : " << acc.num_runs << "\n"
            << "  samples        : " << acc.num_samples << "\n"
            << "  sub-run size   : " << acc.subrun_size << "\n"
            << "  uncovered tail : " << acc.num_uncovered << "\n"
            << "  max rank error : " << MaxRankError(acc) << " ("
            << 100.0 * static_cast<double>(MaxRankError(acc)) /
                   static_cast<double>(acc.total_elements)
            << "% of n)\n";
  if (!list->samples().empty()) {
    std::cout << "  sample range   : [" << list->samples().front() << ", "
              << list->samples().back() << "]\n";
  }
  return 0;
}

int CmdStats(const CommandFlags& flags) {
  if (flags.raw().positional().size() != 2) {  // "stats" + target
    return Fail(Status::InvalidArgument(
        "stats needs exactly one HOST:PORT argument (any opaq_noded or "
        "opaq_queryd address)"));
  }
  const std::string& target = flags.raw().positional()[1];
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == target.size()) {
    return Fail(Status::InvalidArgument("bad stats target '" + target +
                                        "'; expected HOST:PORT"));
  }
  char* end = nullptr;
  const long port = std::strtol(target.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port < 1 || port > 65535) {
    return Fail(
        Status::InvalidArgument("bad port in stats target '" + target + "'"));
  }
  const std::string format = flags.GetString("format");
  if (format != "text" && format != "prometheus") {
    return Fail(Status::InvalidArgument("unknown --format: " + format +
                                        " (text | prometheus)"));
  }
  auto client = NodeClient::Connect(target.substr(0, colon),
                                    static_cast<uint16_t>(port));
  if (!client.ok()) return Fail(client.status());
  Status sent = client->SendRequest(WireOp::kStats, nullptr, 0);
  if (!sent.ok()) return Fail(sent);
  auto frame = client->ReceiveResponse(WireOp::kStatsData);
  if (!frame.ok()) return Fail(frame.status());
  auto snapshot =
      DecodeStatsPayload(frame->payload.data(), frame->payload.size());
  if (!snapshot.ok()) return Fail(snapshot.status());
  std::cout << (format == "prometheus" ? FormatStatsPrometheus(*snapshot)
                                       : FormatStatsText(*snapshot));
  return 0;
}

int Main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) return Fail(flags.status());
  if (flags->Has("help") && flags->positional().empty()) {
    return Usage(std::cout, 0);
  }
  if (flags->positional().empty()) return Usage();
  const std::string& command = flags->positional()[0];
  if (command == "help") return Usage(std::cout, 0);
  const CommandSpec* spec = nullptr;
  for (const CommandSpec& candidate : Commands()) {
    if (command == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) {
    std::cerr << "unknown command: " << command << "\n";
    return Usage();
  }
  if (flags->Has("help")) {
    PrintCommandHelp(*spec, std::cout);
    return 0;
  }
  Status valid = ValidateFlags(*flags, *spec);
  if (!valid.ok()) {
    // Bad input is usage, not an internal error: name the problem, show the
    // command's flag table, and exit 2 like the daemons do.
    std::cerr << "error: " << valid.message() << "\n\n";
    PrintCommandHelp(*spec, std::cerr);
    return 2;
  }
  CommandFlags command_flags(*flags, *spec);
  // The handler lives in the same table as the flags and help text, so a
  // new command cannot be added without its dispatch.
  OPAQ_CHECK(spec->run != nullptr)
      << "command '" << command << "' has no handler in its spec";
  return spec->run(command_flags);
}

}  // namespace
}  // namespace cli
}  // namespace opaq

int main(int argc, char** argv) { return opaq::cli::Main(argc, argv); }
