#ifndef OPAQ_NET_REMOTE_COMPUTE_H_
#define OPAQ_NET_REMOTE_COMPUTE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/exact.h"
#include "core/opaq_config.h"
#include "core/sample_list.h"
#include "net/client.h"
#include "net/frame_io.h"
#include "net/wire_compute.h"
#include "util/status.h"

namespace opaq {

/// Client half of the compute ops: asks a data node to run the paper's
/// sample phase (`SampleRuns`) or §4 filter scan (`ExactPass`) over one of
/// its exported datasets, and decodes the O(s) response — the counterpart
/// of `RemoteRunProvider`, which ships the O(n) raw runs instead.
///
/// The node executes the identical computation local mode would
/// (`OpaqSketch::Consume` / `internal_exact::AccumulateBrackets` over its
/// own `RunProvider`), so the decoded results merge into coordinator state
/// byte-identical to a single-process run over the same data.
///
/// Each call dials its own connection, like `RemoteRunProvider::OpenRuns`
/// — the methods are const and safe to call concurrently from the engine's
/// shard threads. Failure semantics: every error (an export without compute
/// hooks answering Unimplemented, node death mid-request, corrupt response
/// payloads, the node's own disk failing) propagates as the `Status` it
/// is; nothing falls back to streaming.
template <typename K>
class RemoteComputeClient {
 public:
  /// `spec`/`options` as validated by `RemoteRunProvider::Connect` (the
  /// facade constructs this only after the handshake admitted the dataset's
  /// key type).
  RemoteComputeClient(RemoteSpec spec, NodeClientOptions options)
      : spec_(std::move(spec)), options_(std::move(options)) {}

  const RemoteSpec& spec() const { return spec_; }

  /// Runs the one-pass sample phase node-side under `config` (the node
  /// validates it exactly as a local sketch would) and returns the sample
  /// list — byte-identical to local sketching of the same dataset.
  Result<SampleList<K>> SampleRuns(const OpaqConfig& config) const {
    WireSampleRunsRequest request;
    request.run_size = config.run_size;
    request.samples_per_run = config.samples_per_run;
    request.seed = config.seed;
    request.select_algorithm =
        static_cast<uint32_t>(config.select_algorithm);
    request.io_mode = static_cast<uint32_t>(config.io_mode);
    request.prefetch_depth = static_cast<uint32_t>(config.prefetch_depth);
    const std::vector<uint8_t> payload =
        EncodeSampleRunsPayload(request, spec_.dataset);
    OPAQ_ASSIGN_OR_RETURN(
        NodeClient client,
        NodeClient::Connect(spec_.host, spec_.port, options_));
    OPAQ_RETURN_IF_ERROR(client.SendRequest(WireOp::kSampleRuns,
                                            payload.data(), payload.size()));
    OPAQ_ASSIGN_OR_RETURN(WireFrame frame,
                          client.ReceiveResponse(WireOp::kSampleListData));
    return DecodeSampleListPayload<K>(frame.payload.data(),
                                      frame.payload.size());
  }

  /// Runs the §4 bracket filter scan node-side: per bracket, how many of
  /// the node's elements fall below it and which fall inside it, under
  /// `memory_budget` kept elements node-side. The scan comes back
  /// uncharged; the coordinator charges and appends it exactly like a local
  /// shard's.
  Result<internal_exact::BracketAccumulator<K>> ExactPass(
      const std::vector<QuantileEstimate<K>>& estimates,
      const ReadOptions& options, uint64_t memory_budget) const {
    WireExactPassRequest request;
    request.memory_budget = memory_budget;
    request.run_size = options.run_size;
    request.io_mode = static_cast<uint32_t>(options.io_mode);
    request.prefetch_depth = static_cast<uint32_t>(options.prefetch_depth);
    const std::vector<uint8_t> payload =
        EncodeExactPassPayload(request, estimates, spec_.dataset);
    OPAQ_ASSIGN_OR_RETURN(
        NodeClient client,
        NodeClient::Connect(spec_.host, spec_.port, options_));
    OPAQ_RETURN_IF_ERROR(client.SendRequest(WireOp::kExactPass,
                                            payload.data(), payload.size()));
    OPAQ_ASSIGN_OR_RETURN(WireFrame frame,
                          client.ReceiveResponse(WireOp::kExactPassData));
    return DecodeExactScanPayload<K>(
        frame.payload.data(), frame.payload.size(),
        static_cast<uint32_t>(estimates.size()));
  }

 private:
  RemoteSpec spec_;
  NodeClientOptions options_;
};

}  // namespace opaq

#endif  // OPAQ_NET_REMOTE_COMPUTE_H_
