#ifndef OPAQ_NET_NODE_COMPUTE_H_
#define OPAQ_NET_NODE_COMPUTE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/exact.h"
#include "core/opaq.h"
#include "core/opaq_config.h"
#include "net/wire_compute.h"
#include "util/status.h"

namespace opaq {

/// Node-side halves of the compute ops: given one exported dataset's
/// `RunProvider`, run the requested phase and produce the complete response
/// payload. These are free templates over the provider seam — the same
/// plain/striped/async readers local mode uses — so a node-side sample list
/// is byte-identical to client-side sketching of the same data, and the
/// whole compute layer stays independent of `NodeServer`'s type-erased
/// export plumbing (which merely binds these into per-dataset hooks).
///
/// Requests arrive off the network, so every field is validated with a
/// `Status` — never a CHECK — and the caller turns failures into `kError`
/// frames that keep the connection alive.

/// Translates a `kSampleRuns` request into the `OpaqConfig` it describes,
/// rejecting unknown enum tags and configs the core would refuse.
/// `max_run_bytes` bounds the node-side run buffer (a remote peer must not
/// be able to make the node allocate arbitrarily much).
template <typename K>
Result<OpaqConfig> SampleRunsConfig(const WireSampleRunsRequest& request,
                                    uint64_t max_run_bytes) {
  if (request.select_algorithm >
      static_cast<uint32_t>(SelectAlgorithm::kIntroSelect)) {
    return Status::InvalidArgument(
        "SAMPLE_RUNS carries unknown select_algorithm tag " +
        std::to_string(request.select_algorithm));
  }
  if (request.io_mode > static_cast<uint32_t>(IoMode::kAsync)) {
    return Status::InvalidArgument("SAMPLE_RUNS carries unknown io_mode tag " +
                                   std::to_string(request.io_mode));
  }
  if (request.run_size > max_run_bytes / sizeof(K)) {
    return Status::ResourceExhausted(
        "SAMPLE_RUNS run_size of " + std::to_string(request.run_size) +
        " elements exceeds this node's per-run memory bound");
  }
  OpaqConfig config;
  config.run_size = request.run_size;
  config.samples_per_run = request.samples_per_run;
  config.seed = request.seed;
  config.select_algorithm =
      static_cast<SelectAlgorithm>(request.select_algorithm);
  config.io_mode = static_cast<IoMode>(request.io_mode);
  config.prefetch_depth = request.prefetch_depth;
  OPAQ_RETURN_IF_ERROR(config.Validate());
  return config;
}

/// `kSampleRuns`: runs the paper's one-pass sample phase over the dataset's
/// runs — the exact computation `OpaqSketch::Consume` performs locally —
/// and returns the serialized sample list (O(s) bytes instead of the O(n)
/// range streaming would ship).
template <typename K>
Result<std::vector<uint8_t>> NodeSampleRuns(
    const RunProvider<K>& provider, const WireSampleRunsRequest& request,
    uint64_t max_run_bytes) {
  OPAQ_ASSIGN_OR_RETURN(OpaqConfig config,
                        SampleRunsConfig<K>(request, max_run_bytes));
  OpaqSketch<K> sketch(config);
  OPAQ_RETURN_IF_ERROR(sketch.Consume(provider));
  return EncodeSampleListPayload(sketch.FinalizeSampleList());
}

/// `kExactPass`: one §4 filter scan over the dataset's runs — the same
/// `internal_exact::AccumulateBrackets` the local second pass uses — and
/// returns per-bracket below-counts plus kept candidates for the
/// coordinator to merge. `brackets` is positioned at the request's bracket
/// bounds, which are decoded (and their region's length checked) first.
template <typename K>
Result<std::vector<uint8_t>> NodeExactPass(const RunProvider<K>& provider,
                                           const WireExactPassRequest& request,
                                           PayloadReader& brackets,
                                           uint64_t max_run_bytes) {
  OPAQ_ASSIGN_OR_RETURN(
      std::vector<QuantileEstimate<K>> estimates,
      DecodeExactBrackets<K>(brackets, request.num_brackets));
  if (request.memory_budget == 0) {
    return Status::InvalidArgument(
        "EXACT_PASS memory_budget of 0 would keep nothing");
  }
  if (request.io_mode > static_cast<uint32_t>(IoMode::kAsync)) {
    return Status::InvalidArgument("EXACT_PASS carries unknown io_mode tag " +
                                   std::to_string(request.io_mode));
  }
  if (request.run_size == 0 || request.run_size > max_run_bytes / sizeof(K)) {
    return Status::ResourceExhausted(
        "EXACT_PASS run_size of " + std::to_string(request.run_size) +
        " elements exceeds this node's per-run memory bound");
  }
  ReadOptions options;
  options.run_size = request.run_size;
  options.io_mode = static_cast<IoMode>(request.io_mode);
  options.prefetch_depth =
      request.prefetch_depth == 0 ? 1 : request.prefetch_depth;
  if (options.prefetch_depth > kMaxPrefetchDepth) {
    return Status::InvalidArgument("EXACT_PASS prefetch_depth of " +
                                   std::to_string(request.prefetch_depth) +
                                   " exceeds the supported maximum");
  }
  internal_exact::BracketAccumulator<K> acc(estimates.size());
  OPAQ_RETURN_IF_ERROR(internal_exact::AccumulateBrackets(
      provider, estimates, options, request.memory_budget, &acc));
  return EncodeExactScanPayload(acc);
}

}  // namespace opaq

#endif  // OPAQ_NET_NODE_COMPUTE_H_
