#ifndef OPAQ_NET_WIRE_COMPUTE_H_
#define OPAQ_NET_WIRE_COMPUTE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/exact.h"
#include "core/sample_list.h"
#include "net/wire.h"
#include "util/status.h"

namespace opaq {

/// Payload codecs of the compute ops (`kSampleRuns` / `kSampleListData`
/// / `kExactPass` / `kExactPassData`): the typed layer both sides of the
/// wire share. Every decoder validates structurally (sizes, accounting
/// invariants, sortedness) and fails with a `Status` — a corrupt or hostile
/// payload must surface as an error frame / sticky stream error, never as a
/// CHECK-abort in either process.

/// `kSampleRuns` request payload: fixed prefix + dataset name.
inline std::vector<uint8_t> EncodeSampleRunsPayload(
    const WireSampleRunsRequest& request, const std::string& dataset) {
  PayloadWriter out(sizeof(request) + dataset.size());
  out.Put(request);
  out.PutString(dataset);
  return out.Take();
}

/// `kSampleListData` response payload: accounting header + the raw sorted
/// samples. Fails with ResourceExhausted when the list cannot fit one
/// frame (raise the sub-run size / lower samples_per_run).
template <typename K>
Result<std::vector<uint8_t>> EncodeSampleListPayload(
    const SampleList<K>& list) {
  const SampleAccounting& acc = list.accounting();
  WireSampleListHeader header;
  header.subrun_size = acc.subrun_size;
  header.num_runs = acc.num_runs;
  header.num_samples = acc.num_samples;
  header.num_uncovered = acc.num_uncovered;
  header.total_elements = acc.total_elements;
  const uint64_t sample_bytes = acc.num_samples * sizeof(K);
  if (sizeof(header) + sample_bytes > kMaxWirePayload) {
    return Status::ResourceExhausted(
        "sample list of " + std::to_string(acc.num_samples) +
        " samples does not fit one wire frame; lower samples_per_run or "
        "raise run_size");
  }
  PayloadWriter out(sizeof(header) + sample_bytes);
  out.Put(header);
  out.PutArray(list.samples());
  return out.Take();
}

/// Decodes and validates a `kSampleListData` payload back into a
/// `SampleList<K>`. Every invariant the `SampleList` constructor CHECKs is
/// verified here first, so a malicious node yields an IoError, not an
/// abort.
template <typename K>
Result<SampleList<K>> DecodeSampleListPayload(const uint8_t* payload,
                                              size_t len) {
  PayloadReader in(payload, len, "SAMPLE_LIST_DATA");
  WireSampleListHeader header;
  OPAQ_RETURN_IF_ERROR(in.Read(&header));
  if (header.num_samples != in.remaining() / sizeof(K) ||
      in.remaining() % sizeof(K) != 0) {
    return Status::IoError(
        "SAMPLE_LIST_DATA header promises " +
        std::to_string(header.num_samples) + " samples, payload holds " +
        std::to_string(in.remaining()) + " bytes");
  }
  SampleAccounting acc;
  acc.subrun_size = header.subrun_size;
  acc.num_runs = header.num_runs;
  acc.num_samples = header.num_samples;
  acc.num_uncovered = header.num_uncovered;
  acc.total_elements = header.total_elements;
  if (!acc.Valid()) {
    return Status::IoError(
        "SAMPLE_LIST_DATA carries inconsistent sample accounting");
  }
  std::vector<K> samples;
  OPAQ_RETURN_IF_ERROR(in.ReadArray(header.num_samples, &samples));
  if (!std::is_sorted(samples.begin(), samples.end())) {
    return Status::IoError("SAMPLE_LIST_DATA samples are not sorted");
  }
  return SampleList<K>(std::move(samples), acc);
}

/// `kExactPass` request payload: fixed prefix + dataset name + `num_brackets`
/// (lower, upper) element pairs. Only the bracket bounds travel; target
/// ranks stay coordinator-side (the node's filter scan does not need them).
/// Fills in the request's own `num_brackets` / `name_len` framing fields.
template <typename K>
std::vector<uint8_t> EncodeExactPassPayload(
    WireExactPassRequest request,
    const std::vector<QuantileEstimate<K>>& estimates,
    const std::string& dataset) {
  request.num_brackets = static_cast<uint32_t>(estimates.size());
  request.name_len = static_cast<uint32_t>(dataset.size());
  PayloadWriter out(sizeof(request) + dataset.size() +
                    estimates.size() * 2 * sizeof(K));
  out.Put(request);
  out.PutString(dataset);
  for (const QuantileEstimate<K>& e : estimates) {
    out.Put(e.lower);
    out.Put(e.upper);
  }
  return out.Take();
}

/// Decodes the bracket bounds of a `kExactPass` request (node side): `in`
/// is positioned past the fixed prefix and dataset name, and the rest of
/// the payload must be exactly `num_brackets` (lower, upper) element pairs.
/// A wrong length or an inverted bracket is a per-request InvalidArgument.
template <typename K>
Result<std::vector<QuantileEstimate<K>>> DecodeExactBrackets(
    PayloadReader& in, uint32_t num_brackets) {
  const uint64_t need = uint64_t{num_brackets} * 2 * sizeof(K);
  if (in.remaining() != need) {
    return Status::InvalidArgument(
        "EXACT_PASS carries " + std::to_string(in.remaining()) +
        " bracket bytes where " + std::to_string(num_brackets) +
        " brackets of " + std::to_string(sizeof(K)) +
        "-byte elements need " + std::to_string(need));
  }
  std::vector<QuantileEstimate<K>> estimates(num_brackets);
  for (QuantileEstimate<K>& e : estimates) {
    OPAQ_RETURN_IF_ERROR(in.Read(&e.lower));
    OPAQ_RETURN_IF_ERROR(in.Read(&e.upper));
    if (e.upper < e.lower) {
      return Status::InvalidArgument(
          "EXACT_PASS bracket has upper < lower");
    }
  }
  return estimates;
}

/// `kExactPassData` response payload: one node-side §4 filter scan as
/// header + below-counts + kept-counts + concatenated kept elements. Fails
/// with ResourceExhausted when the kept sets cannot fit one frame (the
/// coordinator's budget normally keeps them far below the cap).
template <typename K>
Result<std::vector<uint8_t>> EncodeExactScanPayload(
    const internal_exact::BracketAccumulator<K>& scan) {
  OPAQ_CHECK_EQ(scan.below.size(), scan.kept.size());
  WireExactPassHeader header;
  header.num_brackets = static_cast<uint32_t>(scan.below.size());
  for (const std::vector<K>& kept : scan.kept) {
    header.kept_total += kept.size();
  }
  const uint64_t bytes = sizeof(header) +
                         scan.below.size() * 2 * sizeof(uint64_t) +
                         header.kept_total * sizeof(K);
  if (bytes > kMaxWirePayload) {
    return Status::ResourceExhausted(
        "EXACT_PASS kept sets of " + std::to_string(header.kept_total) +
        " elements do not fit one wire frame; lower the memory budget or "
        "raise samples_per_run");
  }
  PayloadWriter out(static_cast<size_t>(bytes));
  out.Put(header);
  out.PutArray(scan.below);
  for (const std::vector<K>& kept : scan.kept) {
    out.Put(uint64_t{kept.size()});
  }
  for (const std::vector<K>& kept : scan.kept) out.PutArray(kept);
  return out.Take();
}

/// Decodes and validates a `kExactPassData` payload (client side). The
/// result is uncharged (`held` is 0): whoever folds it in charges its kept
/// sets against the coordinator's budget.
template <typename K>
Result<internal_exact::BracketAccumulator<K>> DecodeExactScanPayload(
    const uint8_t* payload, size_t len, uint32_t expected_brackets) {
  PayloadReader in(payload, len, "EXACT_PASS_DATA");
  WireExactPassHeader header;
  OPAQ_RETURN_IF_ERROR(in.Read(&header));
  if (header.num_brackets != expected_brackets) {
    return Status::IoError(
        "EXACT_PASS_DATA answers " + std::to_string(header.num_brackets) +
        " brackets, " + std::to_string(expected_brackets) + " were asked");
  }
  const uint64_t counts_bytes =
      uint64_t{header.num_brackets} * 2 * sizeof(uint64_t);
  if (in.remaining() < counts_bytes ||
      in.remaining() - counts_bytes != header.kept_total * sizeof(K) ||
      header.kept_total > kMaxWirePayload / sizeof(K)) {
    return Status::IoError(
        "EXACT_PASS_DATA payload length disagrees with its header");
  }
  internal_exact::BracketAccumulator<K> scan(header.num_brackets);
  OPAQ_RETURN_IF_ERROR(in.ReadArray(header.num_brackets, &scan.below));
  std::vector<uint64_t> kept_counts;
  OPAQ_RETURN_IF_ERROR(in.ReadArray(header.num_brackets, &kept_counts));
  uint64_t total = 0;
  for (uint64_t count : kept_counts) total += count;
  if (total != header.kept_total) {
    return Status::IoError(
        "EXACT_PASS_DATA kept counts do not sum to the header total");
  }
  for (uint32_t q = 0; q < header.num_brackets; ++q) {
    OPAQ_RETURN_IF_ERROR(in.ReadArray(kept_counts[q], &scan.kept[q]));
  }
  return scan;
}

}  // namespace opaq

#endif  // OPAQ_NET_WIRE_COMPUTE_H_
