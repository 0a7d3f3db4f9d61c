#ifndef OPAQ_PERFBENCH_WORKLOADS_H_
#define OPAQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "opaq/config.h"
#include "opaq/query.h"
#include "perfbench/harness.h"

namespace opaq {
namespace perfbench {

// The four workloads. Each writes its inputs from `config.seed`, runs its
// setup kSetupRepetitions times, one discarded warm-up op, then the timed
// phase, checks every answer, and fills `report`. A returned error means a
// setup or check step could not run at all (no result is printed).
//
// End-to-end metrics, per workload:
//   setup_s    median over the setups of the calls into the program only:
//              dataset writers (with a final fsync), server starts and the
//              epoch-1 build; never the benchmark's own data generation.
//   build_ms   median time to make a new epoch queryable: Source::Open +
//              Engine::Build (scan-uniform), Engine::Build (exact-zipf-
//              extent, remote-stream), QueryServer::Refresh with a tail
//              sketch and Absorb (serve-live).
//   op_ms      median time of one whole op (scan-uniform, exact-zipf-
//              extent, remote-stream) or of one 8-request batch over TCP
//              as the client sees it (serve-live).
//   ops_per_s  ops per second of op time; requests answered per second of
//              the timed phase on serve-live.
//   rank_error_ppm  the final session's certified max_rank_error / n.
//   peak_rss_mb     peak RSS over the timed phase only.
//
// Per-layer metrics of a traced run are per op (per Engine::Build for the
// select/core/io sketch stages; per query batch for net.* on serve-live).
Status RunScanUniform(const RunConfig& config, Report* report);
Status RunExactZipfExtent(const RunConfig& config, Report* report);
Status RunServeLive(const RunConfig& config, Report* report);
Status RunRemoteStream(const RunConfig& config, Report* report);

/// The sketch geometry of every workload: async reads at the default
/// prefetch depth, m = 2^20 and s = 1024 (m = 2^16 at tiny scale).
OpaqConfig BenchConfig(const RunConfig& config);

/// `queryd_loadgen`'s 8-request mix of quantile, rank and by-rank requests,
/// varied deterministically by `index`; by-rank requests stay in [1, n].
std::vector<QueryRequest<Key>> MixedBatch(uint64_t index, uint64_t n);

/// The element of 1-based rank `rank` in `sorted`.
Key TruthAt(const std::vector<Key>& sorted, uint64_t rank);

/// Checks that every bracket of `estimates` holds the true order statistic
/// of `sorted`; reports each violation. Clamped bounds certify nothing and
/// are skipped.
void CheckCertified(const std::vector<QuantileEstimate<Key>>& estimates,
                    const std::vector<Key>& sorted, const char* what,
                    Report* report);

/// The true order statistics `batch` asks for, in answer order; the ranks
/// come from an estimate-only run of the batch on `session`.
Result<std::vector<Key>> Truths(const QuerySession<Key>& session,
                                std::vector<QueryRequest<Key>> batch,
                                const std::vector<Key>& sorted);

/// Every exact value of `answers`, in answer order.
std::vector<Key> ExactValues(const QueryResults<Key>& answers);

/// Per-op stage metrics of a traced run from flight-recorder totals:
/// select.sample_ms/runs, core.merge_ms/merges, io.extent_decode_ms and
/// net.wire_send_ms/wire_recv_ms.
void ReportStages(const StageTotals& stages, double ops, Report* report);

/// Per-op pack accounting: io.extents_decoded, io.packed_bytes,
/// io.unpacked_bytes and io.pack_ratio (packed / unpacked).
void ReportPacking(const ExtentStatsSnapshot& packs, double ops,
                   Report* report);

/// Traced-run probes of a finished session: `core.estimate_us` (median
/// local estimate-only Query of the serve-live mix) and
/// `core.tail_clamped_bounds` (uncertified bounds of a p0.01/p99.99
/// estimate).
void ProbeSession(const QuerySession<Key>& session, Report* report);

/// Kernel rates on fixed inputs: `select.kernel_melem_s`
/// (RegularSamplesBySubrunSize on a 2^20 run, s = 1024),
/// `util.crc32_mb_s` (Crc32 over 8 MiB) and `io.delta_decode_mb_s` (the
/// delta codec decompressing one 64Ki-element zipf extent).
void MeasureKernels(const RunConfig& config, Report* report);

}  // namespace perfbench
}  // namespace opaq

#endif  // OPAQ_PERFBENCH_WORKLOADS_H_
