// Wire-protocol codec tests: CRC correctness, frame round trips, rejection
// of truncation/corruption/foreign traffic and of every version but the
// one, and the committed golden byte stream (`tests/golden/wire.bin`) that
// pins every frame format — if the header layout, op codes, CRC polynomial
// or payload encodings ever drift, these fail in tier-1 instead of
// silently orphaning every deployed node.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

#include "io/extent.h"
#include "net/wire.h"
#include "net/wire_compute.h"
#include "net/wire_query.h"
#include "net/wire_stats.h"

namespace opaq {
namespace {

TEST(Crc32Test, KnownAnswers) {
  // The classic CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(WireFrameTest, HeaderLayoutIsPinned) {
  static_assert(sizeof(WireFrameHeader) == 16);
  static_assert(offsetof(WireFrameHeader, magic) == 0);
  static_assert(offsetof(WireFrameHeader, version) == 4);
  static_assert(offsetof(WireFrameHeader, op) == 6);
  static_assert(offsetof(WireFrameHeader, payload_len) == 8);
  static_assert(offsetof(WireFrameHeader, payload_crc) == 12);
  static_assert(sizeof(WireDatasetInfo) == 24);
  static_assert(sizeof(WireReadRange) == 16);
  EXPECT_EQ(WireFrameHeader::kMagic, 0x4e51504fu);
  EXPECT_EQ(kWireVersion, 7);
}

TEST(WireFrameTest, ComputeLayoutIsPinned) {
  static_assert(sizeof(WireSampleRunsRequest) == 40);
  static_assert(sizeof(WireSampleListHeader) == 40);
  static_assert(sizeof(WireExactPassRequest) == 32);
  static_assert(offsetof(WireExactPassRequest, name_len) == 28);
  static_assert(sizeof(WireExactPassHeader) == 16);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kSampleRuns), 10);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kSampleListData), 11);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kExactPass), 12);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kExactPassData), 13);
}

TEST(WireFrameTest, QueryLayoutIsPinned) {
  static_assert(sizeof(WireSessionInfo) == 48);
  static_assert(sizeof(WireQueryHeader) == 16);
  static_assert(sizeof(WireQueryRequest) == 32);
  static_assert(sizeof(WireQueryResultHeader) == 24);
  static_assert(sizeof(WireQueryResultRecord) == 48);
  static_assert(sizeof(WireQuantileEstimate) == 40);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kOpenSession), 14);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kSessionInfo), 15);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kQuery), 16);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kQueryResult), 17);
}

TEST(WireFrameTest, ExtentLayoutIsPinned) {
  static_assert(sizeof(WireExtentInfo) == 48);
  static_assert(offsetof(WireExtentInfo, max_extents_per_read) == 32);
  static_assert(offsetof(WireExtentInfo, default_codec) == 40);
  static_assert(sizeof(WireReadExtents) == 16);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kOpenExtents), 18);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kExtentInfo), 19);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kReadExtents), 20);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kExtentData), 21);
}

TEST(WireFrameTest, AppendLayoutIsPinned) {
  static_assert(sizeof(WireAppendRequest) == 16);
  static_assert(offsetof(WireAppendRequest, count) == 0);
  static_assert(offsetof(WireAppendRequest, name_len) == 8);
  static_assert(offsetof(WireAppendRequest, flags) == 12);
  static_assert(sizeof(WireAppendAck) == 16);
  static_assert(offsetof(WireAppendAck, total_elements) == 0);
  static_assert(offsetof(WireAppendAck, num_segments) == 8);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kAppend), 22);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kAppendAck), 23);
}

TEST(WireFrameTest, StatsLayoutIsPinned) {
  EXPECT_EQ(kWireStatsVersion, 1u);
  static_assert(sizeof(WireStatsHeader) == 8);
  static_assert(offsetof(WireStatsHeader, stats_version) == 0);
  static_assert(offsetof(WireStatsHeader, num_metrics) == 4);
  static_assert(sizeof(WireStatsMetric) == 4);
  static_assert(offsetof(WireStatsMetric, name_len) == 0);
  static_assert(offsetof(WireStatsMetric, type) == 2);
  static_assert(offsetof(WireStatsMetric, reserved) == 3);
  static_assert(sizeof(WireStatsHistogram) == 40);
  static_assert(offsetof(WireStatsHistogram, count) == 0);
  static_assert(offsetof(WireStatsHistogram, sum) == 8);
  static_assert(offsetof(WireStatsHistogram, subrun_size) == 16);
  static_assert(offsetof(WireStatsHistogram, num_runs) == 24);
  static_assert(offsetof(WireStatsHistogram, num_samples) == 32);
  static_assert(offsetof(WireStatsHistogram, reserved) == 36);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kStats), 24);
  EXPECT_EQ(static_cast<uint16_t>(WireOp::kStatsData), 25);
}

/// Every op this build speaks, in code order.
const WireOp kAllOps[] = {
    WireOp::kPing,        WireOp::kPong,           WireOp::kOpenDataset,
    WireOp::kDatasetInfo, WireOp::kReadRange,      WireOp::kRangeData,
    WireOp::kError,       WireOp::kSampleRuns,     WireOp::kSampleListData,
    WireOp::kExactPass,   WireOp::kExactPassData,  WireOp::kOpenSession,
    WireOp::kSessionInfo, WireOp::kQuery,          WireOp::kQueryResult,
    WireOp::kOpenExtents, WireOp::kExtentInfo,     WireOp::kReadExtents,
    WireOp::kExtentData,  WireOp::kAppend,         WireOp::kAppendAck,
    WireOp::kStats,       WireOp::kStatsData,
};

TEST(WireFrameTest, EveryFrameCarriesTheOneVersion) {
  for (WireOp op : kAllOps) {
    std::vector<uint8_t> bytes = EncodeFrame(op, nullptr, 0);
    WireFrameHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    EXPECT_EQ(header.version, kWireVersion)
        << WireOpName(static_cast<uint16_t>(op));
    EXPECT_TRUE(DecodeFrame(bytes.data(), bytes.size(), nullptr).ok());
  }
  // Codes 8 and 9 (the retired HELLO / HELLO_ACK) have no name.
  EXPECT_STREQ(WireOpName(8), "?");
  EXPECT_STREQ(WireOpName(9), "?");
}

TEST(WireFrameTest, EveryOtherVersionIsRejectedNamingBoth) {
  const std::vector<uint8_t> good = EncodeFrame(WireOp::kPing, nullptr, 0);
  for (uint16_t version : {0, 1, 2, 3, 4, 5, 6, 8, 0xFFFF}) {
    std::vector<uint8_t> bytes = good;
    std::memcpy(bytes.data() + offsetof(WireFrameHeader, version), &version,
                sizeof(version));
    auto frame = DecodeFrame(bytes.data(), bytes.size(), nullptr);
    ASSERT_FALSE(frame.ok()) << "version " << version;
    EXPECT_EQ(frame.status().code(), StatusCode::kIoError);
    const std::string& message = frame.status().message();
    EXPECT_NE(message.find("version " + std::to_string(version) + " "),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("only version " + std::to_string(kWireVersion)),
              std::string::npos)
        << message;
  }
}

TEST(WireFrameTest, PayloadCapBoundaryIsExact) {
  // Exactly kMaxWirePayload is framable; one byte more is rejected before
  // any allocation happens.
  WireFrameHeader header;
  header.op = static_cast<uint16_t>(WireOp::kRangeData);
  header.payload_len = kMaxWirePayload;
  EXPECT_TRUE(ValidateFrameHeader(header).ok());
  header.payload_len = kMaxWirePayload + 1;
  Status over = ValidateFrameHeader(header);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.message().find("cap"), std::string::npos);
}

TEST(WireFrameTest, ZeroLengthPayloadFrameIsWellFormed) {
  // CRC-32 of empty input is 0 by definition; an empty-payload frame must
  // encode that, survive the round trip, and consume exactly one header.
  std::vector<uint8_t> bytes = EncodeFrame(WireOp::kStats, nullptr, 0);
  WireFrameHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_EQ(header.payload_len, 0u);
  EXPECT_EQ(header.payload_crc, Crc32(nullptr, 0));
  EXPECT_EQ(header.payload_crc, 0u);
  size_t consumed = 0;
  auto frame = DecodeFrame(bytes.data(), bytes.size(), &consumed);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(consumed, sizeof(WireFrameHeader));
  EXPECT_TRUE(frame->payload.empty());
}

TEST(WireFrameTest, EncodeDecodeRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> bytes = EncodeFrame(WireOp::kRangeData, payload);
  ASSERT_EQ(bytes.size(), sizeof(WireFrameHeader) + payload.size());
  size_t consumed = 0;
  auto frame = DecodeFrame(bytes.data(), bytes.size(), &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame->op, static_cast<uint16_t>(WireOp::kRangeData));
  EXPECT_EQ(frame->payload, payload);
}

TEST(WireFrameTest, EmptyPayloadRoundTrip) {
  std::vector<uint8_t> bytes = EncodeFrame(WireOp::kPing, nullptr, 0);
  ASSERT_EQ(bytes.size(), sizeof(WireFrameHeader));
  size_t consumed = 0;
  auto frame = DecodeFrame(bytes.data(), bytes.size(), &consumed);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(WireFrameTest, ErrorFrameCarriesStatus) {
  const Status original = Status::NotFound("no such dataset");
  std::vector<uint8_t> bytes = EncodeErrorFrame(original);
  auto frame = DecodeFrame(bytes.data(), bytes.size(), nullptr);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->op, static_cast<uint16_t>(WireOp::kError));
  Status carried =
      DecodeErrorPayload(frame->payload.data(), frame->payload.size());
  EXPECT_EQ(carried.code(), StatusCode::kNotFound);
  EXPECT_EQ(carried.message(), "no such dataset");
}

TEST(WireFrameTest, ErrorPayloadNeverDecodesToOk) {
  // A malformed (short, or OK-coded) error payload must still be an error.
  EXPECT_FALSE(DecodeErrorPayload(nullptr, 0).ok());
  const uint32_t ok_code = 0;
  EXPECT_FALSE(
      DecodeErrorPayload(reinterpret_cast<const uint8_t*>(&ok_code),
                         sizeof(ok_code))
          .ok());
}

TEST(WireFrameTest, RejectsTruncation) {
  std::vector<uint8_t> bytes =
      EncodeFrame(WireOp::kRangeData, std::vector<uint8_t>(100, 7));
  // Shorter than a header, and shorter than the promised payload.
  for (size_t len : {size_t{0}, size_t{8}, sizeof(WireFrameHeader),
                     sizeof(WireFrameHeader) + 50}) {
    auto frame = DecodeFrame(bytes.data(), len, nullptr);
    EXPECT_FALSE(frame.ok()) << "length " << len;
    EXPECT_EQ(frame.status().code(), StatusCode::kIoError);
  }
}

TEST(WireFrameTest, RejectsCorruption) {
  std::vector<uint8_t> bytes =
      EncodeFrame(WireOp::kRangeData, std::vector<uint8_t>(32, 9));
  // Flip one payload byte: CRC must catch it.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[sizeof(WireFrameHeader) + 5] ^= 0x40;
  auto frame = DecodeFrame(corrupt.data(), corrupt.size(), nullptr);
  EXPECT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("CRC"), std::string::npos);

  // Foreign magic.
  corrupt = bytes;
  corrupt[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrame(corrupt.data(), corrupt.size(), nullptr).ok());

  // Future version.
  corrupt = bytes;
  corrupt[4] = 99;
  auto skew = DecodeFrame(corrupt.data(), corrupt.size(), nullptr);
  EXPECT_FALSE(skew.ok());
  EXPECT_NE(skew.status().message().find("version"), std::string::npos);
}

TEST(WireFrameTest, RejectsOversizedPayloadClaim) {
  WireFrameHeader header;
  header.op = static_cast<uint16_t>(WireOp::kRangeData);
  header.payload_len = kMaxWirePayload + 1;
  std::vector<uint8_t> bytes(sizeof(header));
  std::memcpy(bytes.data(), &header, sizeof(header));
  auto frame = DecodeFrame(bytes.data(), bytes.size(), nullptr);
  EXPECT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("cap"), std::string::npos);
}

// ------------------------------------------------ Golden byte stream ----

/// The fixed snapshot the golden stream and the stats codec cases use: one
/// metric of each type, values chosen so no field is zero by accident.
MetricsSnapshot GoldenSnapshot() {
  MetricsSnapshot snapshot;
  MetricSample counter;
  counter.name = "net.frames_served";
  counter.type = MetricType::kCounter;
  counter.value = 12345;
  snapshot.metrics.push_back(counter);
  MetricSample gauge;
  gauge.name = "query.sessions";
  gauge.type = MetricType::kGauge;
  gauge.value = static_cast<uint64_t>(int64_t{-3});  // two's complement
  snapshot.metrics.push_back(gauge);
  MetricSample histogram;
  histogram.name = "query.batch_latency_us";
  histogram.type = MetricType::kHistogram;
  histogram.histogram.count = 200;
  histogram.histogram.sum = 51200;
  histogram.histogram.subrun_size = 16;
  histogram.histogram.num_runs = 2;
  histogram.histogram.samples = {11, 23, 37, 53, 71, 97, 131, 211,
                                 331, 433, 557, 691};
  histogram.value = histogram.histogram.count;
  snapshot.metrics.push_back(histogram);
  return snapshot;
}

/// The canned conversation committed as tests/golden/wire.bin: every op
/// of the protocol once, fixed payloads, over a u64 dataset / session /
/// live dataset "sales", one block per op family. The EXTENT_DATA frame
/// carries a REAL stored extent — ExtentHeader, payload CRC and all — so
/// the blob also pins the on-wire stored-extent layout against the extent
/// codec. `MakeGoldenStream` must keep producing these exact bytes forever
/// (or kWireVersion must be bumped and a new blob committed).
std::vector<uint8_t> MakeGoldenStream() {
  std::vector<uint8_t> stream;
  auto append = [&stream](const std::vector<uint8_t>& frame) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  };
  const std::string name = "sales";
  {  // Byte ops.
    // 1. PING / 7. PONG bracket the conversation.
    append(EncodeFrame(WireOp::kPing, nullptr, 0));
    // 2. OPEN_DATASET "sales"
    append(EncodeFrame(WireOp::kOpenDataset, name.data(), name.size()));
    // 3. DATASET_INFO: 1000 u64 elements, 4096-element read bound.
    WireDatasetInfo info;
    info.key_type = 2;  // KeyType::kU64
    info.element_size = 8;
    info.element_count = 1000;
    info.max_read_elements = 4096;
    append(EncodeFrame(WireOp::kDatasetInfo, &info, sizeof(info)));
    // 4. READ_RANGE [40, +4) of "sales"
    WireReadRange range;
    range.first = 40;
    range.count = 4;
    std::vector<uint8_t> request(sizeof(range) + name.size());
    std::memcpy(request.data(), &range, sizeof(range));
    std::memcpy(request.data() + sizeof(range), name.data(), name.size());
    append(EncodeFrame(WireOp::kReadRange, request.data(), request.size()));
    // 5. RANGE_DATA: the four u64 values {2, 3, 5, 7}.
    const uint64_t values[] = {2, 3, 5, 7};
    append(EncodeFrame(WireOp::kRangeData, values, sizeof(values)));
    // 6. ERROR: NOT_FOUND for a missing dataset.
    append(EncodeErrorFrame(
        Status::NotFound("node exports no dataset named 'tmp'")));
    append(EncodeFrame(WireOp::kPong, nullptr, 0));
  }
  {  // Compute ops.
    // 1. SAMPLE_RUNS: m=8, s=2, seed 7, intro-select, sync.
    WireSampleRunsRequest request;
    request.run_size = 8;
    request.samples_per_run = 2;
    request.seed = 7;
    request.select_algorithm = 3;  // SelectAlgorithm::kIntroSelect
    request.io_mode = 0;
    request.prefetch_depth = 2;
    append(EncodeFrame(WireOp::kSampleRuns,
                       EncodeSampleRunsPayload(request, name)));
    // 2. SAMPLE_LIST_DATA: one run of 8 elements, samples {11, 22}.
    WireSampleListHeader list_header;
    list_header.subrun_size = 4;
    list_header.num_runs = 1;
    list_header.num_samples = 2;
    list_header.num_uncovered = 0;
    list_header.total_elements = 8;
    const uint64_t samples[] = {11, 22};
    std::vector<uint8_t> list_payload(sizeof(list_header) +
                                      sizeof(samples));
    std::memcpy(list_payload.data(), &list_header, sizeof(list_header));
    std::memcpy(list_payload.data() + sizeof(list_header), samples,
                sizeof(samples));
    append(EncodeFrame(WireOp::kSampleListData, list_payload));
    // 3. EXACT_PASS: one bracket [10, 30], budget 64, m=8.
    WireExactPassRequest exact;
    exact.memory_budget = 64;
    exact.run_size = 8;
    exact.io_mode = 0;
    exact.prefetch_depth = 2;
    std::vector<QuantileEstimate<uint64_t>> brackets(1);
    brackets[0].lower = 10;
    brackets[0].upper = 30;
    append(EncodeFrame(WireOp::kExactPass,
                       EncodeExactPassPayload(exact, brackets, name)));
    // 4. EXACT_PASS_DATA: 3 below, kept {11, 22}.
    internal_exact::BracketAccumulator<uint64_t> scan;
    scan.below = {3};
    scan.kept = {{11, 22}};
    auto scan_payload = EncodeExactScanPayload(scan);
    OPAQ_CHECK_OK(scan_payload.status());
    append(EncodeFrame(WireOp::kExactPassData, *scan_payload));
  }
  {  // Query-serving ops.
    // 1. OPEN_SESSION "sales" (payload is the bare name).
    append(EncodeFrame(WireOp::kOpenSession, name.data(), name.size()));
    // 2. SESSION_INFO: 1000 u64 elements, 125 samples, epoch 1.
    WireSessionInfo info;
    info.key_type = 2;  // KeyType::kU64
    info.element_size = 8;
    info.total_elements = 1000;
    info.max_rank_error = 8;
    info.num_samples = 125;
    info.epoch = 1;
    info.exact_enabled = 1;
    append(EncodeFrame(WireOp::kSessionInfo, &info, sizeof(info)));
    // 3. QUERY: one batch of all four request kinds (one exact-flagged).
    std::vector<QueryRequest<uint64_t>> requests = {
        QueryRequest<uint64_t>::Quantile(0.5),
        QueryRequest<uint64_t>::QuantileByRank(250, /*exact=*/true),
        QueryRequest<uint64_t>::RankOf(7),
        QueryRequest<uint64_t>::EquiQuantiles(4),
    };
    append(EncodeFrame(
        WireOp::kQuery,
        EncodeQueryPayload<uint64_t>(name, {requests.data(),
                                            requests.size()})));
    // 4. QUERY_RESULT: a quantile bracket with an exact value, and a rank
    // bracket — enough to pin every field of the result records.
    QueryResults<uint64_t> results;
    results.total_elements = 1000;
    results.max_rank_error = 8;
    QueryResult<uint64_t> quantile;
    quantile.kind = QueryRequest<uint64_t>::Kind::kQuantile;
    QuantileEstimate<uint64_t> estimate;
    estimate.target_rank = 500;
    estimate.lower_index = 61;
    estimate.upper_index = 63;
    estimate.max_rank_error = 8;
    estimate.lower = 11;
    estimate.upper = 22;
    estimate.lower_clamped = false;
    estimate.upper_clamped = true;
    quantile.estimates = {estimate};
    quantile.exact = {17};
    results.results.push_back(quantile);
    QueryResult<uint64_t> rank;
    rank.kind = QueryRequest<uint64_t>::Kind::kRank;
    rank.rank.min_rank_le = 3;
    rank.rank.max_rank_le = 19;
    rank.rank.min_rank_lt = 2;
    rank.rank.max_rank_lt = 18;
    results.results.push_back(rank);
    auto payload = EncodeQueryResultsPayload(results);
    OPAQ_CHECK_OK(payload.status());
    append(EncodeFrame(WireOp::kQueryResult, *payload));
  }
  {  // Extent ops, over 4 elements per extent, 14 elements, 4 extents.
    // 1. OPEN_EXTENTS "sales" (payload is the bare name).
    append(EncodeFrame(WireOp::kOpenExtents, name.data(), name.size()));
    // 2. EXTENT_INFO: u64 elements, 4 per extent, 14 total, 4 extents.
    WireExtentInfo info;
    info.key_type = 2;  // KeyType::kU64
    info.element_size = 8;
    info.element_count = 14;
    info.extent_elements = 4;
    info.num_extents = 4;
    info.max_extents_per_read = 16;
    info.default_codec = 1;  // ExtentCodec::kDelta
    append(EncodeFrame(WireOp::kExtentInfo, &info, sizeof(info)));
    // 3. READ_EXTENTS [0, +1) of "sales".
    WireReadExtents range;
    range.first_extent = 0;
    range.count = 1;
    std::vector<uint8_t> request(sizeof(range) + name.size());
    std::memcpy(request.data(), &range, sizeof(range));
    std::memcpy(request.data() + sizeof(range), name.data(), name.size());
    append(
        EncodeFrame(WireOp::kReadExtents, request.data(), request.size()));
    // 4. EXTENT_DATA: extent 0 stored raw — the four u64 values
    // {2, 3, 5, 7}.
    const uint64_t values[] = {2, 3, 5, 7};
    ExtentHeader extent;
    extent.codec = 0;  // ExtentCodec::kRaw
    extent.payload_crc = Crc32(values, sizeof(values));
    extent.extent_index = 0;
    extent.unpacked_len = sizeof(values);
    extent.packed_len = sizeof(values);
    std::vector<uint8_t> stored(sizeof(extent) + sizeof(values));
    std::memcpy(stored.data(), &extent, sizeof(extent));
    std::memcpy(stored.data() + sizeof(extent), values, sizeof(values));
    append(EncodeFrame(WireOp::kExtentData, stored.data(), stored.size()));
  }
  {  // Ingest ops.
    // 1. APPEND: the four u64 values {2, 3, 5, 7} as one new segment.
    WireAppendRequest request;
    request.count = 4;
    request.name_len = static_cast<uint32_t>(name.size());
    request.flags = 0;
    const uint64_t values[] = {2, 3, 5, 7};
    std::vector<uint8_t> payload(sizeof(request) + name.size() +
                                 sizeof(values));
    std::memcpy(payload.data(), &request, sizeof(request));
    std::memcpy(payload.data() + sizeof(request), name.data(), name.size());
    std::memcpy(payload.data() + sizeof(request) + name.size(), values,
                sizeof(values));
    append(EncodeFrame(WireOp::kAppend, payload));
    // 2. APPEND_ACK: the dataset already held 1000 elements in 2 segments.
    WireAppendAck ack;
    ack.total_elements = 1004;
    ack.num_segments = 3;
    append(EncodeFrame(WireOp::kAppendAck, &ack, sizeof(ack)));
  }
  // Stats ops: an empty-payload STATS poll and the STATS_DATA snapshot
  // with one counter, one gauge, and one sketch-backed histogram.
  append(EncodeFrame(WireOp::kStats, nullptr, 0));
  append(EncodeFrame(WireOp::kStatsData,
                     EncodeStatsPayload(GoldenSnapshot())));
  return stream;
}

std::vector<uint8_t> GoldenBlobBytes() {
  const std::string path = std::string(OPAQ_GOLDEN_DIR) + "/wire.bin";
  std::ifstream in(path, std::ios::binary);
  OPAQ_CHECK(in.good()) << "missing golden blob: " << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST(WireGoldenTest, EncoderProducesExactGoldenBytes) {
  EXPECT_EQ(MakeGoldenStream(), GoldenBlobBytes())
      << "the wire frame encoding changed; nodes, daemons and clients "
         "built before and after would no longer interoperate. If "
         "intentional, bump kWireVersion and commit a new golden blob.";
}

/// The decoded frame of the golden stream carrying `op` (each op appears
/// exactly once).
const WireFrame& FrameOf(const std::vector<WireFrame>& frames, WireOp op) {
  for (const WireFrame& frame : frames) {
    if (frame.op == static_cast<uint16_t>(op)) return frame;
  }
  OPAQ_CHECK(false) << "golden stream has no " << WireOpName(
      static_cast<uint16_t>(op)) << " frame";
  return frames.front();
}

TEST(WireGoldenTest, GoldenStreamDecodesFrameByFrame) {
  const std::vector<uint8_t> blob = GoldenBlobBytes();
  const WireOp expected_ops[] = {
      WireOp::kPing,         WireOp::kOpenDataset,    WireOp::kDatasetInfo,
      WireOp::kReadRange,    WireOp::kRangeData,      WireOp::kError,
      WireOp::kPong,         WireOp::kSampleRuns,     WireOp::kSampleListData,
      WireOp::kExactPass,    WireOp::kExactPassData,  WireOp::kOpenSession,
      WireOp::kSessionInfo,  WireOp::kQuery,          WireOp::kQueryResult,
      WireOp::kOpenExtents,  WireOp::kExtentInfo,     WireOp::kReadExtents,
      WireOp::kExtentData,   WireOp::kAppend,         WireOp::kAppendAck,
      WireOp::kStats,        WireOp::kStatsData,
  };
  size_t offset = 0;
  std::vector<WireFrame> frames;
  for (WireOp expected : expected_ops) {
    const uint16_t op = static_cast<uint16_t>(expected);
    WireFrameHeader header;
    ASSERT_GE(blob.size() - offset, sizeof(header));
    std::memcpy(&header, blob.data() + offset, sizeof(header));
    EXPECT_EQ(header.version, kWireVersion) << WireOpName(op);
    size_t consumed = 0;
    auto frame =
        DecodeFrame(blob.data() + offset, blob.size() - offset, &consumed);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->op, op);
    frames.push_back(std::move(frame).value());
    offset += consumed;
  }
  EXPECT_EQ(offset, blob.size()) << "golden stream has trailing bytes";

  // The payloads decode through the real codecs, not just frame-wise.
  // Byte ops.
  {
    const WireFrame& frame = FrameOf(frames, WireOp::kDatasetInfo);
    WireDatasetInfo info;
    ASSERT_EQ(frame.payload.size(), sizeof(info));
    std::memcpy(&info, frame.payload.data(), sizeof(info));
    EXPECT_EQ(info.element_count, 1000u);
    EXPECT_EQ(info.max_read_elements, 4096u);
  }
  // Compute ops.
  {
    const WireFrame& frame = FrameOf(frames, WireOp::kSampleListData);
    auto list = DecodeSampleListPayload<uint64_t>(frame.payload.data(),
                                                  frame.payload.size());
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    EXPECT_EQ(list->samples(), (std::vector<uint64_t>{11, 22}));
    EXPECT_EQ(list->accounting().total_elements, 8u);
  }
  {
    const WireFrame& frame = FrameOf(frames, WireOp::kExactPass);
    WireExactPassRequest exact;
    ASSERT_GE(frame.payload.size(), sizeof(exact));
    std::memcpy(&exact, frame.payload.data(), sizeof(exact));
    EXPECT_EQ(exact.name_len, 5u);  // "sales"
    EXPECT_EQ(exact.num_brackets, 1u);
    EXPECT_EQ(frame.payload.size(),
              sizeof(exact) + exact.name_len + 2 * sizeof(uint64_t));
  }
  {
    const WireFrame& frame = FrameOf(frames, WireOp::kExactPassData);
    auto scan = DecodeExactScanPayload<uint64_t>(frame.payload.data(),
                                                 frame.payload.size(),
                                                 /*expected_brackets=*/1);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->below, (std::vector<uint64_t>{3}));
    EXPECT_EQ(scan->kept[0], (std::vector<uint64_t>{11, 22}));
  }
  // Query-serving ops.
  {
    const WireFrame& frame = FrameOf(frames, WireOp::kQuery);
    auto named = DecodeQueryName(frame.payload.data(), frame.payload.size());
    ASSERT_TRUE(named.ok()) << named.status().ToString();
    EXPECT_EQ(named->second, "sales");
    auto requests = DecodeQueryRequests<uint64_t>(
        frame.payload.data(), frame.payload.size(), named->first);
    ASSERT_TRUE(requests.ok()) << requests.status().ToString();
    ASSERT_EQ(requests->size(), 4u);
    EXPECT_EQ((*requests)[0].kind, QueryRequest<uint64_t>::Kind::kQuantile);
    EXPECT_EQ((*requests)[0].phi, 0.5);
    EXPECT_TRUE((*requests)[1].exact);
    EXPECT_EQ((*requests)[1].rank, 250u);
    EXPECT_EQ((*requests)[2].value, 7u);
    EXPECT_EQ((*requests)[3].q, 4);
  }
  {
    const WireFrame& frame = FrameOf(frames, WireOp::kQueryResult);
    auto results = DecodeQueryResultsPayload<uint64_t>(frame.payload.data(),
                                                       frame.payload.size());
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    EXPECT_EQ(results->total_elements, 1000u);
    ASSERT_EQ(results->results.size(), 2u);
    ASSERT_EQ(results->results[0].estimates.size(), 1u);
    EXPECT_EQ(results->results[0].estimates[0].lower, 11u);
    EXPECT_EQ(results->results[0].estimates[0].upper, 22u);
    EXPECT_TRUE(results->results[0].estimates[0].upper_clamped);
    EXPECT_EQ(results->results[0].exact, (std::vector<uint64_t>{17}));
    EXPECT_EQ(results->results[1].rank.max_rank_le, 19u);
  }
  // Extent ops.
  {
    const WireFrame& frame = FrameOf(frames, WireOp::kExtentInfo);
    WireExtentInfo info;
    ASSERT_EQ(frame.payload.size(), sizeof(info));
    std::memcpy(&info, frame.payload.data(), sizeof(info));
    EXPECT_EQ(info.element_count, 14u);
    EXPECT_EQ(info.extent_elements, 4u);
    EXPECT_EQ(info.num_extents, 4u);
    EXPECT_EQ(info.max_extents_per_read, 16u);
  }
  {
    // The stored extent decodes through the REAL extent validator — the
    // same code path a client runs on every received extent.
    const WireFrame& frame = FrameOf(frames, WireOp::kExtentData);
    uint64_t decoded[4] = {};
    Status s = DecodeStoredExtent(frame.payload.data(), frame.payload.size(),
                                  /*expected_index=*/0,
                                  /*expected_unpacked=*/sizeof(decoded),
                                  /*element_size=*/8, /*verify_crc=*/true,
                                  decoded, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(decoded[0], 2u);
    EXPECT_EQ(decoded[3], 7u);
  }
  // Ingest ops: the APPEND payload parses field by field — prefix, name,
  // raw elements.
  {
    const WireFrame& frame = FrameOf(frames, WireOp::kAppend);
    WireAppendRequest request;
    ASSERT_GE(frame.payload.size(), sizeof(request));
    std::memcpy(&request, frame.payload.data(), sizeof(request));
    EXPECT_EQ(request.count, 4u);
    EXPECT_EQ(request.name_len, 5u);  // "sales"
    EXPECT_EQ(request.flags, 0u);
    ASSERT_EQ(frame.payload.size(),
              sizeof(request) + request.name_len +
                  request.count * sizeof(uint64_t));
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(
                              frame.payload.data() + sizeof(request)),
                          request.name_len),
              "sales");
    uint64_t elements[4] = {};
    std::memcpy(elements,
                frame.payload.data() + sizeof(request) + request.name_len,
                sizeof(elements));
    EXPECT_EQ(elements[0], 2u);
    EXPECT_EQ(elements[3], 7u);
  }
  {
    const WireFrame& frame = FrameOf(frames, WireOp::kAppendAck);
    WireAppendAck ack;
    ASSERT_EQ(frame.payload.size(), sizeof(ack));
    std::memcpy(&ack, frame.payload.data(), sizeof(ack));
    EXPECT_EQ(ack.total_elements, 1004u);
    EXPECT_EQ(ack.num_segments, 3u);
  }
  // Stats ops.
  EXPECT_TRUE(FrameOf(frames, WireOp::kStats).payload.empty());
  {
    const WireFrame& frame = FrameOf(frames, WireOp::kStatsData);
    auto decoded =
        DecodeStatsPayload(frame.payload.data(), frame.payload.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const MetricsSnapshot expected = GoldenSnapshot();
    ASSERT_EQ(decoded->metrics.size(), expected.metrics.size());
    for (size_t i = 0; i < expected.metrics.size(); ++i) {
      EXPECT_EQ(decoded->metrics[i].name, expected.metrics[i].name);
      EXPECT_EQ(decoded->metrics[i].type, expected.metrics[i].type);
      EXPECT_EQ(decoded->metrics[i].value, expected.metrics[i].value);
    }
    EXPECT_EQ(decoded->metrics[1].gauge_value(), -3);
    const HistogramSnapshot& hist = decoded->metrics[2].histogram;
    EXPECT_EQ(hist.count, 200u);
    EXPECT_EQ(hist.sum, 51200u);
    EXPECT_EQ(hist.subrun_size, 16u);
    EXPECT_EQ(hist.num_runs, 2u);
    EXPECT_EQ(hist.samples, expected.metrics[2].histogram.samples);
  }
}

// ------------------------------------------------ stats payload codec ----

TEST(WireStatsTest, EmptySnapshotRoundTrips) {
  MetricsSnapshot empty;
  std::vector<uint8_t> payload = EncodeStatsPayload(empty);
  EXPECT_EQ(payload.size(), sizeof(WireStatsHeader));
  auto decoded = DecodeStatsPayload(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->metrics.empty());
  EXPECT_EQ(decoded->stats_version, kWireStatsVersion);
}

TEST(WireStatsTest, LiveRegistrySnapshotRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("a.count")->Add(77);
  registry.GetGauge("b.gauge")->Set(-9000);
  LatencyHistogram::Config config;
  config.run_size = 32;
  config.samples_per_run = 8;
  LatencyHistogram* hist = registry.GetHistogram("c.hist", config);
  for (uint64_t v = 0; v < 100; ++v) hist->Record(v * 3);
  const MetricsSnapshot snapshot = registry.Snapshot();
  std::vector<uint8_t> payload = EncodeStatsPayload(snapshot);
  auto decoded = DecodeStatsPayload(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->metrics.size(), 3u);
  EXPECT_EQ(decoded->metrics[0].name, "a.count");
  EXPECT_EQ(decoded->metrics[0].value, 77u);
  EXPECT_EQ(decoded->metrics[1].gauge_value(), -9000);
  EXPECT_EQ(decoded->metrics[2].histogram.samples,
            snapshot.metrics[2].histogram.samples);
  EXPECT_EQ(decoded->metrics[2].histogram.sum,
            snapshot.metrics[2].histogram.sum);
  // Decode -> encode is byte-stable (the golden blob depends on it).
  EXPECT_EQ(EncodeStatsPayload(*decoded), payload);
}

/// Every hostile case must come back as a Status, never a CHECK-abort.
Status DecodeStatus(const std::vector<uint8_t>& payload) {
  return DecodeStatsPayload(payload.data(), payload.size()).status();
}

TEST(WireStatsTest, HostilePayloadsSurfaceAsStatus) {
  const std::vector<uint8_t> good = EncodeStatsPayload(GoldenSnapshot());

  // Shorter than the header.
  EXPECT_FALSE(DecodeStatus({0x01, 0x02}).ok());

  // Unsupported snapshot layout version.
  {
    std::vector<uint8_t> bad = good;
    bad[0] = 0x7f;
    Status status = DecodeStatus(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("layout version"), std::string::npos);
  }

  // Metric count above the protocol cap.
  {
    std::vector<uint8_t> bad = good;
    const uint32_t huge = kMaxWireStatsMetrics + 1;
    std::memcpy(bad.data() + 4, &huge, sizeof(huge));
    Status status = DecodeStatus(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("protocol cap"), std::string::npos);
  }

  // Allocation bomb: a large claimed count with no bytes behind it must be
  // rejected BEFORE any reserve.
  {
    std::vector<uint8_t> bad(sizeof(WireStatsHeader));
    WireStatsHeader header;
    header.num_metrics = kMaxWireStatsMetrics;
    std::memcpy(bad.data(), &header, sizeof(header));
    Status status = DecodeStatus(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("carries only"), std::string::npos);
  }

  // Truncation at EVERY byte boundary of a real payload: always a clean
  // Status (the fuzz wall — no length may be trusted before checking).
  for (size_t len = 0; len < good.size(); ++len) {
    auto truncated = DecodeStatsPayload(good.data(), len);
    EXPECT_FALSE(truncated.ok()) << "truncation to " << len
                                 << " bytes decoded successfully";
  }

  // Trailing garbage past the last metric.
  {
    std::vector<uint8_t> bad = good;
    bad.push_back(0xee);
    Status status = DecodeStatus(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("trailing"), std::string::npos);
  }

  // Reserved bits in a metric record.
  {
    std::vector<uint8_t> bad = good;
    bad[sizeof(WireStatsHeader) + 3] = 0x01;  // first record's reserved byte
    Status status = DecodeStatus(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("reserved"), std::string::npos);
  }

  // Unknown metric type tag.
  {
    std::vector<uint8_t> bad = good;
    bad[sizeof(WireStatsHeader) + 2] = 0x09;  // first record's type byte
    Status status = DecodeStatus(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("unknown type"), std::string::npos);
  }

  // Zero-length metric name.
  {
    std::vector<uint8_t> bad = good;
    bad[sizeof(WireStatsHeader)] = 0;
    bad[sizeof(WireStatsHeader) + 1] = 0;
    EXPECT_FALSE(DecodeStatus(bad).ok());
  }

  // Unsorted histogram samples (break the renderers' rank arithmetic).
  {
    MetricsSnapshot snapshot = GoldenSnapshot();
    std::swap(snapshot.metrics[2].histogram.samples.front(),
              snapshot.metrics[2].histogram.samples.back());
    std::vector<uint8_t> bad = EncodeStatsPayload(snapshot);
    Status status = DecodeStatus(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("not sorted"), std::string::npos);
  }

  // Histogram with samples but sub-run size 0 (division bait).
  {
    MetricsSnapshot snapshot = GoldenSnapshot();
    snapshot.metrics[2].histogram.subrun_size = 0;
    std::vector<uint8_t> bad = EncodeStatsPayload(snapshot);
    Status status = DecodeStatus(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("sub-run size 0"), std::string::npos);
  }

  // Random byte-flip fuzz over the whole payload: decode either succeeds
  // or fails with a Status, but NEVER aborts; a success must re-encode.
  std::vector<uint8_t> fuzzed = good;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 2000; ++round) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const size_t pos = static_cast<size_t>(state >> 33) % fuzzed.size();
    const uint8_t old = fuzzed[pos];
    fuzzed[pos] ^= static_cast<uint8_t>(state);
    auto decoded = DecodeStatsPayload(fuzzed.data(), fuzzed.size());
    if (decoded.ok()) {
      EXPECT_EQ(EncodeStatsPayload(*decoded).size(), fuzzed.size());
    }
    fuzzed[pos] = old;
  }
}

}  // namespace
}  // namespace opaq
