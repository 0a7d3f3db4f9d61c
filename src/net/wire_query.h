#ifndef OPAQ_NET_WIRE_QUERY_H_
#define OPAQ_NET_WIRE_QUERY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "opaq/query.h"
#include "opaq/span.h"
#include "util/status.h"

namespace opaq {

/// Payload codecs of the query-serving ops (`kOpenSession` /
/// `kSessionInfo` / `kQuery` / `kQueryResult`): the typed layer
/// `QueryServer`, `QueryClient`, and the loadgen share. Every decoder
/// validates structurally and fails with a `Status` — a corrupt or hostile
/// payload must surface as an error frame / sticky stream error, never as
/// a CHECK-abort in either process.
///
/// The codecs are deterministic byte-for-byte (fixed-layout structs, no
/// padding left unwritten, requests and results kept in batch order), which
/// is what lets the loadgen's conformance gate compare a daemon's
/// `kQueryResult` payload against a local `EncodeQueryResultsPayload` of
/// the same batch with memcmp.

/// Decode-side cap on requests per batch: far above any sane batch, far
/// below what could amplify into trouble.
inline constexpr uint32_t kMaxWireQueryRequests = 4096;
/// Decode-side cap on an equi-depth request's q (the response carries q-1
/// brackets, so q bounds the response size).
inline constexpr uint32_t kMaxWireEquiDepth = 65536;

namespace wire_query_internal {
inline constexpr uint32_t kExactFlag = 1u << 0;
inline constexpr uint32_t kLowerClampedFlag = 1u << 0;
inline constexpr uint32_t kUpperClampedFlag = 1u << 1;
}  // namespace wire_query_internal

/// `kQuery` request payload: header + session name + one fixed-size record
/// (plus one element of probe-value bytes) per request.
template <typename K>
std::vector<uint8_t> EncodeQueryPayload(
    const std::string& session, Span<const QueryRequest<K>> requests) {
  WireQueryHeader header;
  header.name_len = static_cast<uint32_t>(session.size());
  header.num_requests = static_cast<uint32_t>(requests.size());
  PayloadWriter out(sizeof(header) + session.size() +
                    requests.size() * (sizeof(WireQueryRequest) + sizeof(K)));
  out.Put(header);
  out.PutString(session);
  for (const QueryRequest<K>& request : requests) {
    WireQueryRequest record;
    record.kind = static_cast<uint32_t>(request.kind);
    record.flags = request.exact ? wire_query_internal::kExactFlag : 0;
    record.phi = request.phi;
    record.rank = request.rank;
    record.q = request.q < 0 ? 0 : static_cast<uint32_t>(request.q);
    out.Put(record);
    out.Put(request.value);
  }
  return out.Take();
}

/// First (untyped) half of decoding a `kQuery` payload: the header and the
/// session name — all a server can read before resolving the name to a
/// session and learning the element size. Returns the validated header.
inline Result<std::pair<WireQueryHeader, std::string>> DecodeQueryName(
    const uint8_t* payload, size_t len) {
  PayloadReader in(payload, len, "QUERY");
  WireQueryHeader header;
  OPAQ_RETURN_IF_ERROR(in.Read(&header));
  std::string name;
  OPAQ_RETURN_IF_ERROR(in.ReadString(header.name_len, &name));
  if (header.num_requests == 0) {
    return Status::InvalidArgument("QUERY batch holds no requests");
  }
  if (header.num_requests > kMaxWireQueryRequests) {
    return Status::InvalidArgument(
        "QUERY batch of " + std::to_string(header.num_requests) +
        " requests exceeds the protocol cap of " +
        std::to_string(kMaxWireQueryRequests));
  }
  return std::make_pair(header, std::move(name));
}

/// Second (typed) half: the request records after the name. The remaining
/// length must match the header exactly — element size is the session's,
/// so a client that opened the wrong-typed session fails loudly here.
template <typename K>
Result<std::vector<QueryRequest<K>>> DecodeQueryRequests(
    const uint8_t* payload, size_t len, const WireQueryHeader& header) {
  const size_t record_size = sizeof(WireQueryRequest) + sizeof(K);
  const size_t expected =
      sizeof(header) + header.name_len +
      static_cast<size_t>(header.num_requests) * record_size;
  if (len != expected) {
    return Status::IoError(
        "QUERY payload of " + std::to_string(len) + " bytes does not match " +
        std::to_string(header.num_requests) + " requests of " +
        std::to_string(sizeof(K)) + "-byte elements (" +
        std::to_string(expected) + " expected)");
  }
  PayloadReader in(payload, len, "QUERY");
  OPAQ_RETURN_IF_ERROR(in.Skip(sizeof(header) + header.name_len));
  std::vector<QueryRequest<K>> requests;
  requests.reserve(header.num_requests);
  for (uint32_t i = 0; i < header.num_requests; ++i) {
    WireQueryRequest record;
    OPAQ_RETURN_IF_ERROR(in.Read(&record));
    if (record.kind >
        static_cast<uint32_t>(QueryRequest<K>::Kind::kEquiQuantiles)) {
      return Status::InvalidArgument(
          "QUERY request " + std::to_string(i) + " has unknown kind " +
          std::to_string(record.kind));
    }
    if ((record.flags & ~wire_query_internal::kExactFlag) != 0) {
      return Status::InvalidArgument(
          "QUERY request " + std::to_string(i) + " sets unknown flag bits");
    }
    if (record.q > kMaxWireEquiDepth) {
      return Status::InvalidArgument(
          "QUERY request " + std::to_string(i) + " asks for q = " +
          std::to_string(record.q) + " (protocol cap " +
          std::to_string(kMaxWireEquiDepth) + ")");
    }
    QueryRequest<K> request;
    request.kind = static_cast<typename QueryRequest<K>::Kind>(record.kind);
    request.exact = (record.flags & wire_query_internal::kExactFlag) != 0;
    request.phi = record.phi;
    request.rank = record.rank;
    request.q = static_cast<int>(record.q);
    OPAQ_RETURN_IF_ERROR(in.Read(&request.value));
    requests.push_back(request);
  }
  return requests;
}

/// `kQueryResult` response payload: batch certificates + per-result record
/// + estimates (each a fixed record plus the two element-sized bracket
/// bounds) + exact values. Fails with ResourceExhausted when the batch
/// cannot fit one frame (only reachable with q near the protocol cap).
template <typename K>
Result<std::vector<uint8_t>> EncodeQueryResultsPayload(
    const QueryResults<K>& results) {
  WireQueryResultHeader header;
  header.total_elements = results.total_elements;
  header.max_rank_error = results.max_rank_error;
  header.num_results = static_cast<uint32_t>(results.results.size());
  uint64_t bytes = sizeof(header);
  for (const QueryResult<K>& result : results.results) {
    bytes += sizeof(WireQueryResultRecord);
    bytes += result.estimates.size() *
             (sizeof(WireQuantileEstimate) + 2 * sizeof(K));
    bytes += result.exact.size() * sizeof(K);
  }
  if (bytes > kMaxWirePayload) {
    return Status::ResourceExhausted(
        "QUERY_RESULT batch of " + std::to_string(bytes) +
        " bytes does not fit one wire frame; split the batch or lower q");
  }
  PayloadWriter out(static_cast<size_t>(bytes));
  out.Put(header);
  for (const QueryResult<K>& result : results.results) {
    WireQueryResultRecord record;
    record.kind = static_cast<uint32_t>(result.kind);
    record.num_estimates = static_cast<uint32_t>(result.estimates.size());
    record.num_exact = static_cast<uint32_t>(result.exact.size());
    record.min_rank_le = result.rank.min_rank_le;
    record.max_rank_le = result.rank.max_rank_le;
    record.min_rank_lt = result.rank.min_rank_lt;
    record.max_rank_lt = result.rank.max_rank_lt;
    out.Put(record);
    for (const QuantileEstimate<K>& estimate : result.estimates) {
      WireQuantileEstimate wire;
      wire.target_rank = estimate.target_rank;
      wire.lower_index = estimate.lower_index;
      wire.upper_index = estimate.upper_index;
      wire.max_rank_error = estimate.max_rank_error;
      wire.clamp_flags =
          (estimate.lower_clamped ? wire_query_internal::kLowerClampedFlag
                                  : 0) |
          (estimate.upper_clamped ? wire_query_internal::kUpperClampedFlag
                                  : 0);
      out.Put(wire);
      out.Put(estimate.lower);
      out.Put(estimate.upper);
    }
    out.PutArray(result.exact);
  }
  return out.Take();
}

/// Decodes and validates a `kQueryResult` payload (client side). Every
/// record boundary is length-checked before being read, so a truncated or
/// lying payload yields an IoError at the exact field that broke.
template <typename K>
Result<QueryResults<K>> DecodeQueryResultsPayload(const uint8_t* payload,
                                                  size_t len) {
  PayloadReader in(payload, len, "QUERY_RESULT");
  WireQueryResultHeader header;
  OPAQ_RETURN_IF_ERROR(in.Read(&header));
  QueryResults<K> out;
  out.total_elements = header.total_elements;
  out.max_rank_error = header.max_rank_error;
  // Bound num_results by the bytes actually present BEFORE reserving:
  // the count is attacker-controlled, and an unchecked reserve of up to
  // 2^32 records is an allocation bomb, not a Status.
  if (header.num_results > in.remaining() / sizeof(WireQueryResultRecord)) {
    return Status::IoError(
        "QUERY_RESULT claims " + std::to_string(header.num_results) +
        " results but carries only " + std::to_string(in.remaining()) +
        " payload bytes");
  }
  out.results.reserve(header.num_results);
  for (uint32_t r = 0; r < header.num_results; ++r) {
    WireQueryResultRecord record;
    OPAQ_RETURN_IF_ERROR(in.Read(&record));
    if (record.kind >
        static_cast<uint32_t>(QueryRequest<K>::Kind::kEquiQuantiles)) {
      return Status::IoError("QUERY_RESULT result " + std::to_string(r) +
                             " has unknown kind " +
                             std::to_string(record.kind));
    }
    if (record.num_exact != 0 && record.num_exact != record.num_estimates) {
      return Status::IoError(
          "QUERY_RESULT result " + std::to_string(r) + " carries " +
          std::to_string(record.num_exact) + " exact values for " +
          std::to_string(record.num_estimates) + " estimates");
    }
    QueryResult<K> result;
    result.kind = static_cast<typename QueryRequest<K>::Kind>(record.kind);
    result.rank.min_rank_le = record.min_rank_le;
    result.rank.max_rank_le = record.max_rank_le;
    result.rank.min_rank_lt = record.min_rank_lt;
    result.rank.max_rank_lt = record.max_rank_lt;
    for (uint32_t e = 0; e < record.num_estimates; ++e) {
      WireQuantileEstimate wire;
      OPAQ_RETURN_IF_ERROR(in.Read(&wire));
      if ((wire.clamp_flags & ~(wire_query_internal::kLowerClampedFlag |
                                wire_query_internal::kUpperClampedFlag)) !=
          0) {
        return Status::IoError("QUERY_RESULT estimate sets unknown clamp "
                               "flag bits");
      }
      QuantileEstimate<K> estimate;
      estimate.target_rank = wire.target_rank;
      estimate.lower_index = wire.lower_index;
      estimate.upper_index = wire.upper_index;
      estimate.max_rank_error = wire.max_rank_error;
      estimate.lower_clamped =
          (wire.clamp_flags & wire_query_internal::kLowerClampedFlag) != 0;
      estimate.upper_clamped =
          (wire.clamp_flags & wire_query_internal::kUpperClampedFlag) != 0;
      OPAQ_RETURN_IF_ERROR(in.Read(&estimate.lower));
      OPAQ_RETURN_IF_ERROR(in.Read(&estimate.upper));
      result.estimates.push_back(estimate);
    }
    OPAQ_RETURN_IF_ERROR(in.ReadArray(record.num_exact, &result.exact));
    out.results.push_back(std::move(result));
  }
  OPAQ_RETURN_IF_ERROR(in.ExpectEnd());
  return out;
}

}  // namespace opaq

#endif  // OPAQ_NET_WIRE_QUERY_H_
