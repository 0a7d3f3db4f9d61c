#ifndef OPAQ_NET_WIRE_COMPUTE_H_
#define OPAQ_NET_WIRE_COMPUTE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/exact.h"
#include "core/sample_list.h"
#include "net/wire.h"
#include "util/status.h"

namespace opaq {

/// Payload codecs of the v2 compute ops (`kSampleRuns` / `kSampleListData`
/// / `kExactPass` / `kExactPassData`): the typed layer both sides of the
/// wire share. Every decoder validates structurally (sizes, accounting
/// invariants, sortedness) and fails with a `Status` — a corrupt or hostile
/// payload must surface as an error frame / sticky stream error, never as a
/// CHECK-abort in either process.

/// `kSampleRuns` request payload: fixed prefix + dataset name.
inline std::vector<uint8_t> EncodeSampleRunsPayload(
    const WireSampleRunsRequest& request, const std::string& dataset) {
  std::vector<uint8_t> payload(sizeof(request) + dataset.size());
  std::memcpy(payload.data(), &request, sizeof(request));
  std::memcpy(payload.data() + sizeof(request), dataset.data(),
              dataset.size());
  return payload;
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
  std::vector<uint8_t> payload(sizeof(header) + sample_bytes);
  std::memcpy(payload.data(), &header, sizeof(header));
  if (sample_bytes != 0) {
    std::memcpy(payload.data() + sizeof(header), list.samples().data(),
                sample_bytes);
  }
  return payload;
}

/// Decodes and validates a `kSampleListData` payload back into a
/// `SampleList<K>`. Every invariant the `SampleList` constructor CHECKs is
/// verified here first, so a malicious node yields an IoError, not an
/// abort.
template <typename K>
Result<SampleList<K>> DecodeSampleListPayload(const uint8_t* payload,
                                              size_t len) {
  WireSampleListHeader header;
  if (len < sizeof(header)) {
    return Status::IoError(
        "SAMPLE_LIST_DATA payload shorter than its header");
  }
  std::memcpy(&header, payload, sizeof(header));
  if (header.num_samples != (len - sizeof(header)) / sizeof(K) ||
      (len - sizeof(header)) % sizeof(K) != 0) {
    return Status::IoError(
        "SAMPLE_LIST_DATA header promises " +
        std::to_string(header.num_samples) + " samples, payload holds " +
        std::to_string(len - sizeof(header)) + " bytes");
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
  std::vector<K> samples(static_cast<size_t>(header.num_samples));
  if (!samples.empty()) {
    std::memcpy(samples.data(), payload + sizeof(header),
                samples.size() * sizeof(K));
  }
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
  std::vector<uint8_t> payload(sizeof(request) + dataset.size() +
                               estimates.size() * 2 * sizeof(K));
  uint8_t* out = payload.data();
  std::memcpy(out, &request, sizeof(request));
  out += sizeof(request);
  std::memcpy(out, dataset.data(), dataset.size());
  out += dataset.size();
  for (const QuantileEstimate<K>& e : estimates) {
    std::memcpy(out, &e.lower, sizeof(K));
    out += sizeof(K);
    std::memcpy(out, &e.upper, sizeof(K));
    out += sizeof(K);
  }
  return payload;
}

/// Decodes the bracket bounds of a `kExactPass` request (node side). The
/// fixed prefix and dataset name are the server's concern; `brackets` points
/// at the `num_brackets * 2 * sizeof(K)` bound bytes between them.
template <typename K>
Result<std::vector<QuantileEstimate<K>>> DecodeExactBrackets(
    const uint8_t* brackets, uint32_t num_brackets) {
  std::vector<QuantileEstimate<K>> estimates(num_brackets);
  const uint8_t* in = brackets;
  for (QuantileEstimate<K>& e : estimates) {
    std::memcpy(&e.lower, in, sizeof(K));
    in += sizeof(K);
    std::memcpy(&e.upper, in, sizeof(K));
    in += sizeof(K);
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
  std::vector<uint8_t> payload(static_cast<size_t>(bytes));
  uint8_t* out = payload.data();
  std::memcpy(out, &header, sizeof(header));
  out += sizeof(header);
  std::memcpy(out, scan.below.data(),
              scan.below.size() * sizeof(uint64_t));
  out += scan.below.size() * sizeof(uint64_t);
  for (const std::vector<K>& kept : scan.kept) {
    const uint64_t count = kept.size();
    std::memcpy(out, &count, sizeof(count));
    out += sizeof(count);
  }
  for (const std::vector<K>& kept : scan.kept) {
    if (!kept.empty()) {
      std::memcpy(out, kept.data(), kept.size() * sizeof(K));
      out += kept.size() * sizeof(K);
    }
  }
  return payload;
}

/// Decodes and validates a `kExactPassData` payload (client side). The
/// result is uncharged (`held` is 0): whoever folds it in charges its kept
/// sets against the coordinator's budget.
template <typename K>
Result<internal_exact::BracketAccumulator<K>> DecodeExactScanPayload(
    const uint8_t* payload, size_t len, uint32_t expected_brackets) {
  WireExactPassHeader header;
  if (len < sizeof(header)) {
    return Status::IoError("EXACT_PASS_DATA payload shorter than its header");
  }
  std::memcpy(&header, payload, sizeof(header));
  if (header.num_brackets != expected_brackets) {
    return Status::IoError(
        "EXACT_PASS_DATA answers " + std::to_string(header.num_brackets) +
        " brackets, " + std::to_string(expected_brackets) + " were asked");
  }
  const uint64_t counts_bytes =
      uint64_t{header.num_brackets} * 2 * sizeof(uint64_t);
  if (len < sizeof(header) + counts_bytes ||
      len - sizeof(header) - counts_bytes !=
          header.kept_total * sizeof(K) ||
      header.kept_total > kMaxWirePayload / sizeof(K)) {
    return Status::IoError(
        "EXACT_PASS_DATA payload length disagrees with its header");
  }
  internal_exact::BracketAccumulator<K> scan(header.num_brackets);
  const uint8_t* in = payload + sizeof(header);
  std::memcpy(scan.below.data(), in,
              scan.below.size() * sizeof(uint64_t));
  in += scan.below.size() * sizeof(uint64_t);
  std::vector<uint64_t> kept_counts(header.num_brackets);
  std::memcpy(kept_counts.data(), in,
              kept_counts.size() * sizeof(uint64_t));
  in += kept_counts.size() * sizeof(uint64_t);
  uint64_t total = 0;
  for (uint64_t count : kept_counts) total += count;
  if (total != header.kept_total) {
    return Status::IoError(
        "EXACT_PASS_DATA kept counts do not sum to the header total");
  }
  for (uint32_t q = 0; q < header.num_brackets; ++q) {
    scan.kept[q].resize(static_cast<size_t>(kept_counts[q]));
    if (!scan.kept[q].empty()) {
      std::memcpy(scan.kept[q].data(), in, kept_counts[q] * sizeof(K));
      in += kept_counts[q] * sizeof(K);
    }
  }
  return scan;
}

}  // namespace opaq

#endif  // OPAQ_NET_WIRE_COMPUTE_H_
