#ifndef OPAQ_NET_WIRE_H_
#define OPAQ_NET_WIRE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/crc32.h"
#include "util/status.h"

namespace opaq {

/// The one protocol version this build speaks; every frame stamps it.
/// Versions 1-6 (one per op family, plus a HELLO negotiation) are retired.
inline constexpr uint16_t kWireVersion = 7;

/// OPAQ data-node wire protocol, version 7.
///
/// Every message is one length-prefixed frame: a fixed 16-byte header
/// followed by `payload_len` payload bytes. The header carries a magic, the
/// protocol version, the operation code, and a CRC-32 (IEEE) of the payload,
/// so a receiver can reject foreign traffic, version skew, truncation and
/// corruption before interpreting a single payload byte. Multi-byte fields
/// are little-endian on the wire (the repo's on-disk headers share this
/// convention); the frame layouts are pinned by a committed golden byte
/// stream (`tests/golden/wire.bin`).
///
/// The protocol carries six op families. BYTE ops open a dataset and
/// stream element ranges. COMPUTE ops push the paper's work to the data
/// node: `kSampleRuns` runs the one-pass sample phase node-side and returns
/// only the O(s) serialized sample list, and `kExactPass` runs the §4
/// bracket filter scan node-side and returns per-bracket counts plus
/// candidates — turning O(n) bytes on the wire into O(s). QUERY ops serve
/// the long-lived serving daemon (`opaq_queryd` / `QueryServer`):
/// `kOpenSession` resolves a named, already-built `QuerySession` and
/// `kQuery` answers a whole batch of phi-quantile / rank-bracket /
/// equi-depth requests against it. EXTENT ops serve datasets stored as
/// compressed extents (io/extent.h): `kReadExtents` ships stored extents
/// verbatim — packed payloads, CRCs and all — so the client decodes and
/// verifies on its own streaming thread and the wire carries the packed
/// byte count, not the logical one. INGEST ops (`kAppend`/`kAppendAck`)
/// append a batch of raw elements as one new segment of a live dataset
/// (src/ingest/live_dataset.h), and STATS ops (`kStats`/`kStatsData`) ask
/// any daemon built on `FrameServer` for a snapshot of its live metrics
/// registry (src/telemetry/; payload codec in net/wire_stats.h).
///
/// Every frame of every op carries `kWireVersion`. Only binaries of this
/// build speak the protocol, so there is no negotiation: a frame of any
/// other version is answered with one error frame naming both versions,
/// and the connection closes.
///
/// The protocol is a strict request/response alternation per frame, but
/// clients may PIPELINE requests: send k `kReadRange` frames back to back,
/// then consume the k responses in order. The server answers frames in
/// arrival order on each connection, which is what makes pipelining safe
/// and what the remote run streams exploit to overlap network latency with
/// compute.
///
/// Every payload codec, in this file and in wire_compute.h, wire_query.h,
/// wire_stats.h, the clients and the servers, encodes through one
/// `PayloadWriter` and decodes through one `PayloadReader` (below). The
/// reader's contract: every read checks the bytes left before it touches
/// one and fails with IoError naming the op; an array read bounds a
/// peer-chosen count by the bytes actually present before it allocates;
/// reads copy out (no alignment assumption, no pointer into a struct). So a
/// decoder is safe against any byte string by construction, and what it
/// still checks by hand is meaning: caps, sortedness, reserved bits, counts
/// that must agree. This header is the only place in src/net that copies
/// raw bytes (the header-hygiene lint enforces it).
///
/// Security caveat: the protocol is UNAUTHENTICATED and unencrypted — a
/// data node trusts every peer that can reach its port. Deploy on
/// trusted/loopback networks only (see README "Distributed mode").
struct WireFrameHeader {
  static constexpr uint32_t kMagic = 0x4e51504f;  // "OPQN" little-endian
  uint32_t magic = kMagic;
  uint16_t version = kWireVersion;
  uint16_t op = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;  // CRC-32 (IEEE 802.3) of the payload bytes
};
static_assert(sizeof(WireFrameHeader) == 16);
static_assert(std::is_trivially_copyable_v<WireFrameHeader>);

/// Hard cap on a frame payload: protects both sides from allocation bombs
/// when a corrupted or hostile header claims an absurd length. The server's
/// per-request read bound (`NodeServerOptions::max_read_bytes`) is far
/// below this.
inline constexpr uint32_t kMaxWirePayload = 64u << 20;

/// Operation codes. Requests flow client -> node, responses node -> client.
/// `kError` may answer any request; its payload carries a `Status` the
/// client latches as a sticky stream error. Codes 8 and 9 (the retired
/// HELLO / HELLO_ACK) are unknown ops, answered like any other.
enum class WireOp : uint16_t {
  kPing = 1,         // -> empty; liveness probe
  kPong = 2,         // <- empty
  kOpenDataset = 3,  // -> payload: dataset name (raw bytes)
  kDatasetInfo = 4,  // <- payload: WireDatasetInfo
  kReadRange = 5,    // -> payload: WireReadRange + dataset name bytes
  kRangeData = 6,    // <- payload: count * element_size raw element bytes
  kError = 7,        // <- payload: u32 StatusCode + message bytes
  // ----- compute ops (8 and 9 are retired) -----
  kSampleRuns = 10,     // -> payload: WireSampleRunsRequest + dataset name
  kSampleListData = 11, // <- payload: WireSampleListHeader + sorted samples
  kExactPass = 12,      // -> payload: WireExactPassRequest + dataset name
                        //    (name_len bytes) + bracket bounds ((lower,
                        //    upper) element pairs)
  kExactPassData = 13,  // <- payload: WireExactPassHeader + u64 below[] +
                        //    u64 kept_count[] + kept element bytes
  // ----- query-serving ops (opaq_queryd / QueryServer) -----
  kOpenSession = 14,  // -> payload: session name (raw bytes)
  kSessionInfo = 15,  // <- payload: WireSessionInfo
  kQuery = 16,        // -> payload: WireQueryHeader + session name +
                      //    num_requests * (WireQueryRequest + one element)
  kQueryResult = 17,  // <- payload: WireQueryResultHeader + per result
                      //    (WireQueryResultRecord + estimates + exact
                      //    values); see net/wire_query.h
  // ----- compressed-extent streaming ops -----
  kOpenExtents = 18,  // -> payload: dataset name (raw bytes)
  kExtentInfo = 19,   // <- payload: WireExtentInfo
  kReadExtents = 20,  // -> payload: WireReadExtents + dataset name bytes
  kExtentData = 21,   // <- payload: `count` stored extents back to back,
                      //    each self-describing (40-byte ExtentHeader +
                      //    packed payload; decode with DecodeStoredExtent)
  // ----- streaming-ingest ops (live datasets) -----
  kAppend = 22,     // -> payload: WireAppendRequest + dataset name
                    //    (name_len bytes) + count * element_size raw
                    //    element bytes, appended as ONE new segment
  kAppendAck = 23,  // <- payload: WireAppendAck (new dataset totals)
  // ----- observability ops (stats snapshot) -----
  kStats = 24,      // -> empty payload: request a stats snapshot
  kStatsData = 25,  // <- payload: WireStatsHeader + per-metric records
                    //    (see net/wire_stats.h)
};

/// Stable short name for an op ("PING", "READ_RANGE", ...); "?" when
/// unknown.
const char* WireOpName(uint16_t op);

/// `kDatasetInfo` payload: what a node discloses about one exported
/// dataset. `max_read_elements` is the node's per-request read bound for
/// this dataset — clients must split larger ranges into that many elements
/// per `kReadRange` (which is also the natural pipelining grain).
struct WireDatasetInfo {
  uint32_t key_type = 0;      // KeyType tag, matches data-file headers
  uint32_t element_size = 0;  // bytes per element
  uint64_t element_count = 0;
  uint64_t max_read_elements = 0;
};
static_assert(sizeof(WireDatasetInfo) == 24);
static_assert(std::is_trivially_copyable_v<WireDatasetInfo>);

/// Fixed prefix of a `kReadRange` payload; the dataset name (raw bytes)
/// follows so the protocol stays stateless per request.
struct WireReadRange {
  uint64_t first = 0;
  uint64_t count = 0;
};
static_assert(sizeof(WireReadRange) == 16);
static_assert(std::is_trivially_copyable_v<WireReadRange>);

/// `kExtentInfo` payload: what a node discloses about a dataset stored as
/// compressed extents — the full trusted geometry a client needs to decode
/// and validate every stored extent it receives (the stored headers are
/// NEVER trusted for buffer sizing; see `DecodeStoredExtent`). A node
/// answers `kOpenExtents` with Unimplemented when the dataset is not stored
/// as extents — the signal to fall back to `kReadRange` streaming.
/// `max_extents_per_read` is the node's per-request bound on `kReadExtents`.
struct WireExtentInfo {
  uint32_t key_type = 0;      // KeyType tag, matches data-file headers
  uint32_t element_size = 0;  // bytes per element
  uint64_t element_count = 0;
  uint64_t extent_elements = 0;  // logical elements per full extent
  uint64_t num_extents = 0;
  uint64_t max_extents_per_read = 0;
  uint16_t default_codec = 0;  // ExtentCodec tag (informational)
  uint16_t reserved16 = 0;
  uint32_t reserved32 = 0;
};
static_assert(sizeof(WireExtentInfo) == 48);
static_assert(std::is_trivially_copyable_v<WireExtentInfo>);

/// Fixed prefix of a `kReadExtents` payload; the dataset name (raw bytes)
/// follows. Requests the stored (packed) bytes of logical extents
/// `[first_extent, first_extent + count)`.
struct WireReadExtents {
  uint64_t first_extent = 0;
  uint64_t count = 0;
};
static_assert(sizeof(WireReadExtents) == 16);
static_assert(std::is_trivially_copyable_v<WireReadExtents>);

/// Fixed prefix of a `kSampleRuns` payload (the dataset name follows): the
/// full `OpaqConfig` of the sample phase the node must run, so the node-side
/// sketch is the SAME computation the client would have run locally — the
/// returned sample list is byte-identical to client-side sketching of the
/// same data (samples are order statistics; the seed only steers selection
/// pivots, never results).
struct WireSampleRunsRequest {
  uint64_t run_size = 0;
  uint64_t samples_per_run = 0;
  uint64_t seed = 0;
  uint32_t select_algorithm = 0;  // SelectAlgorithm tag
  uint32_t io_mode = 0;           // 0 = sync, 1 = async
  uint32_t prefetch_depth = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(WireSampleRunsRequest) == 40);
static_assert(std::is_trivially_copyable_v<WireSampleRunsRequest>);

/// Fixed prefix of a `kSampleListData` payload; `num_samples` raw sorted
/// element bytes follow. Mirrors `SampleAccounting` field for field, so a
/// received list reconstructs losslessly (and merges with any other list of
/// the same sub-run size).
struct WireSampleListHeader {
  uint64_t subrun_size = 0;
  uint64_t num_runs = 0;
  uint64_t num_samples = 0;
  uint64_t num_uncovered = 0;
  uint64_t total_elements = 0;
};
static_assert(sizeof(WireSampleListHeader) == 40);
static_assert(std::is_trivially_copyable_v<WireSampleListHeader>);

/// Fixed prefix of a `kExactPass` payload; the dataset name (`name_len`
/// bytes) follows, then `num_brackets` (lower, upper) element pairs. The
/// name travels with its own length because the bracket region's size
/// depends on the dataset's element size — which the node only knows after
/// resolving the name. The node scans its runs once, counting elements
/// below each bracket and keeping the elements inside it (the paper's §4
/// filter pass), under `memory_budget` kept elements.
struct WireExactPassRequest {
  uint64_t memory_budget = 0;  // max kept elements node-side (0 invalid)
  uint64_t run_size = 0;
  uint32_t num_brackets = 0;
  uint32_t io_mode = 0;  // 0 = sync, 1 = async
  uint32_t prefetch_depth = 0;
  uint32_t name_len = 0;  // dataset-name bytes following this prefix
};
static_assert(sizeof(WireExactPassRequest) == 32);
static_assert(std::is_trivially_copyable_v<WireExactPassRequest>);

/// Fixed prefix of a `kExactPassData` payload; `num_brackets` u64
/// below-counts follow, then `num_brackets` u64 kept-counts, then the kept
/// elements of every bracket concatenated in bracket order (`kept_total`
/// elements in all).
struct WireExactPassHeader {
  uint64_t kept_total = 0;
  uint32_t num_brackets = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(WireExactPassHeader) == 16);
static_assert(std::is_trivially_copyable_v<WireExactPassHeader>);

/// Fixed prefix of a `kAppend` payload; the dataset name (`name_len`
/// bytes) follows, then `count` raw element bytes. The name travels with
/// its own length because the element region's size depends on the
/// dataset's element size — which the node only knows after resolving the
/// name. The node appends the whole batch as ONE durable segment (fsync'd
/// file, then fsync'd manifest record — see src/ingest/live_dataset.h), so
/// an acked append is crash-safe and visible to every later reader.
struct WireAppendRequest {
  uint64_t count = 0;     // elements in the trailing region (0 invalid)
  uint32_t name_len = 0;  // dataset-name bytes following this prefix
  uint32_t flags = 0;     // reserved, must be 0
};
static_assert(sizeof(WireAppendRequest) == 16);
static_assert(std::is_trivially_copyable_v<WireAppendRequest>);

/// Fixed prefix of a `kStatsData` payload: the snapshot's own layout
/// version (independent of the wire version, so records can grow fields
/// without a protocol bump) and the metric-record count. `num_metrics`
/// records follow, each a `WireStatsMetric` prefix + name bytes + the
/// type-specific value region (see net/wire_stats.h for the codec and its
/// hostile-input validation).
struct WireStatsHeader {
  uint32_t stats_version = 1;
  uint32_t num_metrics = 0;
};
static_assert(sizeof(WireStatsHeader) == 8);
static_assert(std::is_trivially_copyable_v<WireStatsHeader>);

/// Fixed prefix of one metric record inside a `kStatsData` payload. After
/// it: `name_len` name bytes, then the value region — counters and gauges
/// carry one u64 (gauges two's-complement), histograms a
/// `WireStatsHistogram` + `num_samples` sorted u64 samples.
struct WireStatsMetric {
  uint16_t name_len = 0;
  uint8_t type = 0;      // MetricType tag: 0 counter | 1 gauge | 2 histogram
  uint8_t reserved = 0;  // must be 0
};
static_assert(sizeof(WireStatsMetric) == 4);
static_assert(std::is_trivially_copyable_v<WireStatsMetric>);

/// Histogram value region of a stats metric record: the flattened
/// sample-list sketch the `LatencyHistogram` accumulated (`num_samples`
/// sorted u64 samples follow this prefix).
struct WireStatsHistogram {
  uint64_t count = 0;        // values recorded
  uint64_t sum = 0;          // sum of recorded values
  uint64_t subrun_size = 0;  // the sketch's sub-run size (> 0)
  uint64_t num_runs = 0;
  uint32_t num_samples = 0;
  uint32_t reserved = 0;  // must be 0
};
static_assert(sizeof(WireStatsHistogram) == 40);
static_assert(std::is_trivially_copyable_v<WireStatsHistogram>);

/// `kAppendAck` payload: the live dataset's totals AFTER the append was
/// made durable — the writer's commit receipt. `total_elements` is also
/// what an incremental refresher needs to know which tail it has not yet
/// absorbed.
struct WireAppendAck {
  uint64_t total_elements = 0;  // logical elements now in the dataset
  uint64_t num_segments = 0;    // durable manifest records (segments)
};
static_assert(sizeof(WireAppendAck) == 16);
static_assert(std::is_trivially_copyable_v<WireAppendAck>);

/// `kSessionInfo` payload: what `opaq_queryd` discloses about one served
/// session — the dataset geometry plus the session-level certificates every
/// answer will carry. `epoch` counts atomic session swaps (startup build =
/// 1); a client seeing it change knows the dataset was refreshed.
/// `exact_enabled` is 0 when the session was built without attached
/// sources, in which case exact-flagged requests answer FailedPrecondition.
struct WireSessionInfo {
  uint32_t key_type = 0;      // KeyType tag, matches data-file headers
  uint32_t element_size = 0;  // bytes per element
  uint64_t total_elements = 0;
  uint64_t max_rank_error = 0;  // Lemma 1-3 budget (~ n/s)
  uint64_t num_samples = 0;
  uint64_t epoch = 0;
  uint32_t exact_enabled = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(WireSessionInfo) == 48);
static_assert(std::is_trivially_copyable_v<WireSessionInfo>);

/// Fixed prefix of a `kQuery` payload; the session name (`name_len` bytes)
/// follows, then `num_requests` request records. The name travels with its
/// own length because each record carries one element-sized probe value —
/// whose size the server only knows after resolving the name.
struct WireQueryHeader {
  uint32_t name_len = 0;
  uint32_t num_requests = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(WireQueryHeader) == 16);
static_assert(std::is_trivially_copyable_v<WireQueryHeader>);

/// One request record of a `kQuery` payload: the wire form of
/// `QueryRequest<K>` (opaq/query.h). One element of probe-value bytes
/// follows each record (meaningful for kind 2 = rank-of; zero-filled
/// otherwise, so every record has the same size and the payload length is
/// checkable before interpreting a single field).
struct WireQueryRequest {
  uint32_t kind = 0;   // 0 quantile(phi) | 1 by-rank | 2 rank-of | 3 equi-q
  uint32_t flags = 0;  // bit 0: exact (§4 second pass; shared per batch)
  double phi = 0;      // kind 0
  uint64_t rank = 0;   // kind 1
  uint32_t q = 0;      // kind 3
  uint32_t reserved = 0;
};
static_assert(sizeof(WireQueryRequest) == 32);
static_assert(std::is_trivially_copyable_v<WireQueryRequest>);

/// Fixed prefix of a `kQueryResult` payload: the batch-level certificates,
/// then `num_results` results (one `WireQueryResultRecord` each, in request
/// order).
struct WireQueryResultHeader {
  uint64_t total_elements = 0;
  uint64_t max_rank_error = 0;
  uint32_t num_results = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(WireQueryResultHeader) == 24);
static_assert(std::is_trivially_copyable_v<WireQueryResultHeader>);

/// One result of a `kQueryResult` payload: the wire form of
/// `QueryResult<K>`. After each record come `num_estimates` estimate
/// records (`WireQuantileEstimate` + the two element-sized bracket bounds
/// each), then `num_exact` element-sized exact values (0 or num_estimates).
/// The rank-bracket fields are meaningful for kind 2 only.
struct WireQueryResultRecord {
  uint32_t kind = 0;
  uint32_t num_estimates = 0;
  uint32_t num_exact = 0;
  uint32_t reserved = 0;
  uint64_t min_rank_le = 0;
  uint64_t max_rank_le = 0;
  uint64_t min_rank_lt = 0;
  uint64_t max_rank_lt = 0;
};
static_assert(sizeof(WireQueryResultRecord) == 48);
static_assert(std::is_trivially_copyable_v<WireQueryResultRecord>);

/// One quantile estimate inside a `kQueryResult` payload: the wire form of
/// `QuantileEstimate<K>` minus the bounds, which follow as two element-sized
/// values (lower, upper) right after the record.
struct WireQuantileEstimate {
  uint64_t target_rank = 0;
  uint64_t lower_index = 0;
  uint64_t upper_index = 0;
  uint64_t max_rank_error = 0;
  uint32_t clamp_flags = 0;  // bit 0: lower_clamped, bit 1: upper_clamped
  uint32_t reserved = 0;
};
static_assert(sizeof(WireQuantileEstimate) == 40);
static_assert(std::is_trivially_copyable_v<WireQuantileEstimate>);

/// One decoded frame.
struct WireFrame {
  uint16_t op = 0;
  std::vector<uint8_t> payload;
};

/// Appends fixed-layout records, strings and arrays to one payload, front
/// to back, in wire order.
class PayloadWriter {
 public:
  /// Codecs that know their payload size pass it, so the payload is one
  /// allocation and every `Put` is a plain copy.
  explicit PayloadWriter(size_t capacity_hint = 0) : bytes_(capacity_hint) {}

  template <typename T>
  void Put(const T& record) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutBytes(&record, sizeof(T));
  }
  void PutBytes(const void* data, size_t len) {
    if (len > bytes_.size() - size_) {
      bytes_.resize(std::max(2 * bytes_.size(), size_ + len));
    }
    if (len != 0) std::memcpy(bytes_.data() + size_, data, len);
    size_ += len;
  }
  void PutString(const std::string& text) {
    PutBytes(text.data(), text.size());
  }
  template <typename T>
  void PutArray(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutBytes(values.data(), values.size() * sizeof(T));
  }

  std::vector<uint8_t> Take() {
    bytes_.resize(size_);
    size_ = 0;
    return std::move(bytes_);
  }

 private:
  std::vector<uint8_t> bytes_;  // [0, size_) written
  size_t size_ = 0;
};

/// Reads one payload front to back. Every read checks the bytes left first
/// and fails with IoError naming `op`; nothing is read past `len`.
class PayloadReader {
 public:
  /// `op` is a string literal naming the payload ("QUERY_RESULT", ...).
  PayloadReader(const uint8_t* data, size_t len, const char* op)
      : data_(data), len_(len), op_(op) {}
  explicit PayloadReader(const WireFrame& frame)
      : PayloadReader(frame.payload.data(), frame.payload.size(),
                      WireOpName(frame.op)) {}

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }

  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) return Truncated(1, sizeof(T));
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  /// Points `*out` at the next `n` bytes, in place, and steps past them.
  Status ReadBytes(size_t n, const uint8_t** out) {
    if (n > remaining()) return Truncated(1, n);
    *out = data_ + pos_;
    pos_ += n;
    return Status::OK();
  }
  Status Skip(size_t n) {
    const uint8_t* skipped = nullptr;
    return ReadBytes(n, &skipped);
  }

  Status ReadString(size_t n, std::string* out) {
    if (n > remaining()) return Truncated(1, n);
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  /// `count` records; a count the bytes left cannot hold fails before any
  /// allocation.
  template <typename T>
  Status ReadArray(uint64_t count, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) return Truncated(count, sizeof(T));
    out->resize(static_cast<size_t>(count));
    if (count != 0) {
      std::memcpy(out->data(), data_ + pos_, out->size() * sizeof(T));
    }
    pos_ += out->size() * sizeof(T);
    return Status::OK();
  }

  /// Everything left, as text (the bare-name payloads).
  std::string RestAsString() {
    std::string rest(reinterpret_cast<const char*>(data_ + pos_),
                     remaining());
    pos_ = len_;
    return rest;
  }

  /// IoError unless every byte was read.
  Status ExpectEnd() const {
    return remaining() == 0 ? Status::OK() : Trailing();
  }

 private:
  // The error paths live out of line (wire.cc), keeping every read small
  // enough to inline into the codecs' loops.
  Status Truncated(uint64_t count, size_t size) const;
  Status Trailing() const;

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  const char* op_;
};

/// The payload of a one-record message (DATASET_INFO, EXTENT_INFO,
/// SESSION_INFO, APPEND_ACK, ...).
template <typename T>
std::vector<uint8_t> EncodeRecordPayload(const T& record) {
  PayloadWriter out(sizeof(T));
  out.Put(record);
  return out.Take();
}

/// Decodes a one-record payload; any other length is an IoError.
template <typename T>
Result<T> DecodeRecordPayload(const WireFrame& frame) {
  PayloadReader in(frame);
  T record;
  OPAQ_RETURN_IF_ERROR(in.Read(&record));
  OPAQ_RETURN_IF_ERROR(in.ExpectEnd());
  return record;
}

/// The header of the frame carrying `payload` as op `op`: its version field
/// is `kWireVersion`, its CRC the payload's. The senders put it and the
/// payload on the wire in one gather write (`SendFrame`).
WireFrameHeader EncodeFrameHeader(WireOp op, const void* payload, size_t len);

/// Encodes a frame (header + payload copy) as one buffer, as the goldens
/// and tests build them.
std::vector<uint8_t> EncodeFrame(WireOp op, const void* payload, size_t len);
std::vector<uint8_t> EncodeFrame(WireOp op,
                                 const std::vector<uint8_t>& payload);

/// Encodes the `kError` payload, and the whole frame, carrying `status`.
std::vector<uint8_t> EncodeErrorPayload(const Status& status);
std::vector<uint8_t> EncodeErrorFrame(const Status& status);

/// Decodes the `kError` payload back into the `Status` it carries; a
/// malformed payload decodes to an IoError describing the malformation.
/// Never returns OK (error frames carry errors by construction).
Status DecodeErrorPayload(const uint8_t* payload, size_t len);

/// Validates a received header: magic, version (exactly `kWireVersion`),
/// and payload-length cap. (Op codes are NOT validated here — an unknown op is
/// a dispatch-level error so that the receiver can answer it with a clean
/// error frame.)
Status ValidateFrameHeader(const WireFrameHeader& header);

/// Decodes one frame off the front of `data` (header validation + CRC
/// check). On success stores the frame and sets `*consumed` to the bytes
/// eaten; fails with IoError on truncation, corruption, or a foreign/
/// incompatible header.
Result<WireFrame> DecodeFrame(const uint8_t* data, size_t size,
                              size_t* consumed);

}  // namespace opaq

#endif  // OPAQ_NET_WIRE_H_
