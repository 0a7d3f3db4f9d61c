#ifndef OPAQ_CORE_OPAQ_CONFIG_H_
#define OPAQ_CORE_OPAQ_CONFIG_H_

#include <cstdint>
#include <string>

#include "io/codec.h"
#include "io/io_mode.h"
#include "select/select.h"
#include "util/status.h"

namespace opaq {

/// Knobs of the OPAQ sample phase (paper Table 1).
///
/// The memory constraint of §2.3 is `r*s + m <= M` (sample lists of all runs
/// plus one run buffer must fit); `Validate(n)` checks it when a memory
/// budget is supplied.
struct OpaqConfig {
  /// Run size m: how many elements are resident at once. The paper uses the
  /// full memory for a run; smaller m means more runs and looser bounds.
  uint64_t run_size = 1 << 20;

  /// Samples kept per full run, s. Error bound is ~n/s elements of rank, so
  /// accuracy is directly proportional to s (paper §2.4). Must divide
  /// run_size.
  uint64_t samples_per_run = 1024;

  /// Which selection algorithm finds the regular samples (§2.1 offers
  /// [ea72] deterministic or [FR75] randomized; kIntroSelect is our default).
  SelectAlgorithm select_algorithm = SelectAlgorithm::kIntroSelect;

  /// Seed for the (only) randomness: pivot choice in kIntroSelect.
  uint64_t seed = 1;

  /// How `Consume` drives the disk: strict read/sample alternation
  /// (kSync) or a background prefetch thread that overlaps the next run's
  /// read with the current run's sampling (kAsync). The estimator state is
  /// bit-identical either way; async only changes wall time.
  IoMode io_mode = IoMode::kSync;

  /// Read-ahead when io_mode == kAsync (ignored for kSync), in the
  /// backend's own unit — runs for a plain file, chunks per stripe for
  /// striped and extent files, slices or extents for remote sources; see
  /// `ReadOptions::prefetch_depth`. Validate() requires it in
  /// [1, kMaxPrefetchDepth].
  uint64_t prefetch_depth = 2;

  /// Stripe count the workload expects of its striped storage backend
  /// (1 = plain single-device files). Only the CLI/bench layers consume it
  /// — a `StripedDataFile`'s own stripe count is a property of the file —
  /// but it lives here so one config names the full storage setup;
  /// Validate() requires it in [1, kMaxStripes].
  uint64_t stripes = 1;

  /// Codec for compressed-extent output (io/extent.h). Like `stripes`, only
  /// the writer paths (CLI generate, benches) consume it — extent files are
  /// self-describing, so reading never needs it. Validate() requires the
  /// codec to be available in this build.
  ExtentCodec codec = ExtentCodec::kRaw;

  /// Logical elements per extent for compressed-extent output (the CLI's
  /// `--extent-size`). The extent is the unit of compression, prefetch and
  /// wire streaming. Validate() bounds it against `kMaxExtentBytes`.
  uint64_t extent_elements = 64u << 10;

  /// Verify per-extent payload CRCs when reading compressed extents;
  /// uncompressed backends ignore it (see ReadOptions::verify_checksums).
  bool verify_checksums = true;

  /// Sub-run size c = m/s.
  uint64_t subrun_size() const { return run_size / samples_per_run; }

  /// The backend-independent I/O knobs as the io/ layer's `ReadOptions` —
  /// what `RunProvider::OpenRuns` consumes.
  ReadOptions read_options() const {
    ReadOptions options;
    options.run_size = run_size;
    options.io_mode = io_mode;
    options.prefetch_depth = prefetch_depth;
    options.verify_checksums = verify_checksums;
    return options;
  }

  /// Checks structural validity, and the §2.3 memory inequality
  /// r*s + m <= memory_budget when budget and n are both given (0 = skip).
  Status Validate(uint64_t n = 0, uint64_t memory_budget_elements = 0) const;

  std::string ToString() const;
};

}  // namespace opaq

#endif  // OPAQ_CORE_OPAQ_CONFIG_H_
