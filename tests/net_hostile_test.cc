// Hostile-payload sweep over every wire codec and every node request op.
//
// Decoders: each frame of the committed golden stream (wire.bin) is fed to
// its decoder truncated at every length and with every single byte
// flipped. The answer must be a `Status` or a value,
// never a crash (the ASan+UBSan job runs this suite), and decoders whose
// payload length is fixed by its own header must reject every proper
// prefix.
//
// Node requests: each request op a data node parses is sent to a live
// `NodeServer` truncated at every length. Each truncation must draw an
// error frame; the connection must close exactly when the request's fixed
// prefix or its dataset name does not fit, and the node must serve a
// fresh connection afterwards.
//
// Versions and retired ops: a data node and a query daemon answer a frame
// of any version but the one, and a frame of a retired op, with exactly
// one error frame and then close.
//
// Extent stream: the client receives every EXTENT_DATA frame into one
// reused buffer, so a short frame after a long one must be decoded at its
// own length and never from the longer frame's leftover bytes.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "data/dataset.h"
#include "io/block_device.h"
#include "io/data_file.h"
#include "io/extent.h"
#include "net/client.h"
#include "net/frame_io.h"
#include "net/node_server.h"
#include "net/query_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "net/wire_compute.h"
#include "net/wire_query.h"
#include "net/wire_stats.h"
#include "opaq/engine.h"

namespace opaq {
namespace {

using Key = uint64_t;

std::vector<uint8_t> GoldenBlob() {
  const std::string path = std::string(OPAQ_GOLDEN_DIR) + "/wire.bin";
  std::ifstream in(path, std::ios::binary);
  OPAQ_CHECK(in.good()) << "missing golden blob " << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

/// One golden frame: its encoded bytes and its decoded payload.
struct GoldenFrame {
  std::vector<uint8_t> bytes;
  WireFrame frame;
};

std::vector<GoldenFrame> AllGoldenFrames() {
  std::vector<GoldenFrame> frames;
  const std::vector<uint8_t> blob = GoldenBlob();
  size_t offset = 0;
  while (offset < blob.size()) {
    size_t consumed = 0;
    auto frame =
        DecodeFrame(blob.data() + offset, blob.size() - offset, &consumed);
    OPAQ_CHECK_OK(frame.status());
    GoldenFrame golden;
    golden.bytes.assign(blob.begin() + offset,
                        blob.begin() + offset + consumed);
    golden.frame = std::move(frame).value();
    frames.push_back(std::move(golden));
    offset += consumed;
  }
  return frames;
}

/// A payload decoder under test: returns OK when the bytes decoded to a
/// value. `strict` decoders accept exactly one payload length.
struct PayloadDecoder {
  std::function<Status(const uint8_t*, size_t)> decode;
  bool strict = true;
};

/// Finds the decoder of `golden`'s op when that decoder is a free function
/// (request ops are parsed by the node; see the live sweep below).
bool FindDecoder(const WireFrame& golden, PayloadDecoder* out) {
  switch (static_cast<WireOp>(golden.op)) {
    case WireOp::kError:
      // An error payload always decodes to an error Status; its message
      // may be any length, so no prefix is "wrong".
      out->decode = [](const uint8_t* p, size_t n) {
        Status s = DecodeErrorPayload(p, n);
        EXPECT_FALSE(s.ok());
        return Status::OK();
      };
      out->strict = false;
      return true;
    case WireOp::kSampleListData:
      out->decode = [](const uint8_t* p, size_t n) {
        return DecodeSampleListPayload<Key>(p, n).status();
      };
      return true;
    case WireOp::kExactPassData: {
      WireExactPassHeader header;
      OPAQ_CHECK_GE(golden.payload.size(), sizeof(header));
      std::memcpy(&header, golden.payload.data(), sizeof(header));
      const uint32_t brackets = header.num_brackets;
      out->decode = [brackets](const uint8_t* p, size_t n) {
        return DecodeExactScanPayload<Key>(p, n, brackets).status();
      };
      return true;
    }
    case WireOp::kQuery:
      out->decode = [](const uint8_t* p, size_t n) {
        auto named = DecodeQueryName(p, n);
        if (!named.ok()) return named.status();
        return DecodeQueryRequests<Key>(p, n, named->first).status();
      };
      return true;
    case WireOp::kQueryResult:
      out->decode = [](const uint8_t* p, size_t n) {
        return DecodeQueryResultsPayload<Key>(p, n).status();
      };
      return true;
    case WireOp::kExtentData:
      out->decode = [](const uint8_t* p, size_t n) {
        Key values[4];
        return DecodeStoredExtent(p, n, /*expected_index=*/0,
                                  /*expected_unpacked=*/sizeof(values),
                                  sizeof(Key), /*verify_crc=*/true, values,
                                  nullptr);
      };
      return true;
    case WireOp::kStatsData:
      out->decode = [](const uint8_t* p, size_t n) {
        return DecodeStatsPayload(p, n).status();
      };
      return true;
    default:
      return false;
  }
}

TEST(HostileFrameTest, EveryGoldenFrameRejectsEveryTruncationAndFlip) {
  const std::vector<GoldenFrame> frames = AllGoldenFrames();
  ASSERT_GE(frames.size(), 20u);
  for (const GoldenFrame& golden : frames) {
    SCOPED_TRACE(WireOpName(golden.frame.op));
    const std::vector<uint8_t>& bytes = golden.bytes;
    for (size_t len = 0; len < bytes.size(); ++len) {
      size_t consumed = 0;
      EXPECT_FALSE(DecodeFrame(bytes.data(), len, &consumed).ok())
          << "a " << len << "-byte prefix decoded as a whole frame";
    }
    for (size_t at = 0; at < bytes.size(); ++at) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
        std::vector<uint8_t> flipped = bytes;
        flipped[at] ^= mask;
        size_t consumed = 0;
        auto frame = DecodeFrame(flipped.data(), flipped.size(), &consumed);
        // A flip in the magic, the version (this build speaks one), the
        // length, the CRC or the payload is always caught; only one in the
        // op field (not validated at frame level) may decode.
        const bool in_op = at >= offsetof(WireFrameHeader, op) &&
                           at < offsetof(WireFrameHeader, payload_len);
        if (!in_op) {
          EXPECT_FALSE(frame.ok()) << "flip at byte " << at;
        }
      }
    }
  }
}

TEST(HostileFrameTest, EveryGoldenPayloadSurvivesTruncationAndFlips) {
  std::set<uint16_t> swept;
  for (const GoldenFrame& golden : AllGoldenFrames()) {
    PayloadDecoder decoder;
    if (!FindDecoder(golden.frame, &decoder)) continue;
    swept.insert(golden.frame.op);
    SCOPED_TRACE(WireOpName(golden.frame.op));
    const std::vector<uint8_t>& payload = golden.frame.payload;
    EXPECT_TRUE(decoder.decode(payload.data(), payload.size()).ok());
    for (size_t len = 0; len < payload.size(); ++len) {
      // A copy of exactly `len` bytes, so ASan sees any read past it.
      std::vector<uint8_t> cut(payload.begin(), payload.begin() + len);
      Status s = decoder.decode(cut.data(), cut.size());
      if (decoder.strict) {
        EXPECT_FALSE(s.ok()) << "a " << len << "-byte prefix decoded";
      }
    }
    for (size_t at = 0; at < payload.size(); ++at) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
        std::vector<uint8_t> flipped = payload;
        flipped[at] ^= mask;
        decoder.decode(flipped.data(), flipped.size());  // Status or value
      }
    }
  }
  // ERROR, SAMPLE_LIST_DATA, EXACT_PASS_DATA, QUERY, QUERY_RESULT,
  // EXTENT_DATA and STATS_DATA all appear in the golden stream.
  EXPECT_EQ(swept.size(), 7u);
}

template <typename T>
Status DecodeRecord(const WireFrame& frame) {
  return DecodeRecordPayload<T>(frame).status();
}

TEST(HostileFrameTest, OneRecordPayloadsAcceptExactlyTheirSize) {
  std::set<uint16_t> swept;
  for (const GoldenFrame& golden : AllGoldenFrames()) {
    Status (*decode)(const WireFrame&) = nullptr;
    switch (static_cast<WireOp>(golden.frame.op)) {
      case WireOp::kDatasetInfo: decode = DecodeRecord<WireDatasetInfo>; break;
      case WireOp::kExtentInfo: decode = DecodeRecord<WireExtentInfo>; break;
      case WireOp::kSessionInfo: decode = DecodeRecord<WireSessionInfo>; break;
      case WireOp::kAppendAck: decode = DecodeRecord<WireAppendAck>; break;
      default: continue;
    }
    swept.insert(golden.frame.op);
    SCOPED_TRACE(WireOpName(golden.frame.op));
    EXPECT_TRUE(decode(golden.frame).ok());
    WireFrame cut = golden.frame;
    while (!cut.payload.empty()) {
      cut.payload.pop_back();
      cut.payload.shrink_to_fit();
      Status s = decode(cut);
      EXPECT_EQ(s.code(), StatusCode::kIoError) << cut.payload.size();
    }
    WireFrame longer = golden.frame;
    longer.payload.push_back(0);
    EXPECT_EQ(decode(longer).code(), StatusCode::kIoError);
  }
  EXPECT_EQ(swept.size(), 4u);
}

// ---------------------------------------------- live node request sweep ----

/// A node exporting a typed u64 dataset "data" (range reads and compute)
/// and an appendable in-memory dataset "live".
struct HostileNode {
  MemoryBlockDevice device;
  std::unique_ptr<TypedDataFile<Key>> file;
  NodeServer server;

  HostileNode() {
    DatasetSpec spec;
    spec.n = 4096;
    spec.seed = 11;
    OPAQ_CHECK_OK(WriteDataset(GenerateDataset<Key>(spec), &device));
    auto opened = TypedDataFile<Key>::Open(&device);
    OPAQ_CHECK_OK(opened.status());
    file = std::make_unique<TypedDataFile<Key>>(std::move(opened).value());
    server.Export("data", file.get());
    ExportedDataset live;
    live.key_type = static_cast<uint32_t>(KeyTraits<Key>::kType);
    live.element_size = sizeof(Key);
    live.read = [](uint64_t, uint64_t, void*) { return Status::OK(); };
    live.append = [](const uint8_t*, uint64_t count) -> Result<WireAppendAck> {
      WireAppendAck ack;
      ack.total_elements = count;
      ack.num_segments = 1;
      return ack;
    };
    server.Export("live", std::move(live));
    OPAQ_CHECK_OK(server.Start());
  }

  TcpConnection Dial() const {
    auto conn = TcpConnection::Connect("127.0.0.1", server.port(),
                                       /*receive_timeout_seconds=*/10);
    OPAQ_CHECK_OK(conn.status());
    return std::move(conn).value();
  }
};

template <typename T>
std::vector<uint8_t> PrefixAndName(const T& prefix, const std::string& name,
                                   size_t tail_bytes = 0) {
  std::vector<uint8_t> payload(sizeof(prefix) + name.size() + tail_bytes, 7);
  std::memcpy(payload.data(), &prefix, sizeof(prefix));
  std::memcpy(payload.data() + sizeof(prefix), name.data(), name.size());
  return payload;
}

/// One request op and where its framing ends: truncations shorter than
/// `framing_bytes` (fixed prefix plus dataset name, where the name's
/// length is carried in the prefix) must close the connection.
struct HostileRequest {
  WireOp op;
  std::vector<uint8_t> payload;
  size_t framing_bytes;
};

std::vector<HostileRequest> HostileRequests() {
  std::vector<HostileRequest> requests;
  WireReadRange range;
  range.first = 0;
  range.count = 16;
  requests.push_back(
      {WireOp::kReadRange, PrefixAndName(range, "data"), sizeof(range)});

  WireSampleRunsRequest sample;
  sample.run_size = 1024;
  sample.samples_per_run = 32;
  requests.push_back({WireOp::kSampleRuns,
                      EncodeSampleRunsPayload(sample, "data"),
                      sizeof(sample)});

  WireExactPassRequest exact;
  exact.memory_budget = 1u << 16;
  exact.run_size = 1024;
  std::vector<QuantileEstimate<Key>> brackets(2);
  brackets[0].lower = 10;
  brackets[0].upper = 20;
  brackets[1].lower = 30;
  brackets[1].upper = 40;
  requests.push_back({WireOp::kExactPass,
                      EncodeExactPassPayload(exact, brackets, "data"),
                      sizeof(exact) + 4});

  WireReadExtents extents;
  extents.first_extent = 0;
  extents.count = 1;
  requests.push_back({WireOp::kReadExtents, PrefixAndName(extents, "data"),
                      sizeof(extents)});

  WireAppendRequest append;
  append.count = 3;
  append.name_len = 4;
  requests.push_back({WireOp::kAppend,
                      PrefixAndName(append, "live", 3 * sizeof(Key)),
                      sizeof(append) + 4});
  return requests;
}

/// True when a PING on `conn` still draws a PONG.
bool StillServes(TcpConnection& conn) {
  if (!SendFrame(conn, WireOp::kPing, nullptr, 0).ok()) return false;
  auto pong = ReceiveFrame(conn);
  return pong.ok() && pong->op == static_cast<uint16_t>(WireOp::kPong);
}

TEST(HostileNodeTest, EveryTruncatedRequestDrawsAnErrorFrame) {
  HostileNode node;
  for (const HostileRequest& request : HostileRequests()) {
    SCOPED_TRACE(WireOpName(static_cast<uint16_t>(request.op)));
    TcpConnection conn = node.Dial();
    for (size_t len = 0; len < request.payload.size(); ++len) {
      SCOPED_TRACE("payload cut to " + std::to_string(len) + " bytes");
      ASSERT_TRUE(SendFrame(conn, request.op, request.payload.data(), len)
                      .ok());
      auto answer = ReceiveFrame(conn);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->op, static_cast<uint16_t>(WireOp::kError));
      const bool framing_broken = len < request.framing_bytes;
      EXPECT_EQ(StillServes(conn), !framing_broken);
      if (framing_broken) conn = node.Dial();
    }
    // The whole request is well-formed: no error frame for it (READ_EXTENTS
    // on a plain export answers Unimplemented, which keeps the stream).
    ASSERT_TRUE(SendFrame(conn, request.op, request.payload.data(),
                          request.payload.size())
                    .ok());
    ASSERT_TRUE(ReceiveFrame(conn).ok());
    EXPECT_TRUE(StillServes(conn));
  }
  TcpConnection fresh = node.Dial();
  EXPECT_TRUE(StillServes(fresh));
}

// ------------------------------------- other versions and retired ops ----

/// A query daemon serving one small u64 session "s".
struct HostileQueryDaemon {
  QueryServer server;

  HostileQueryDaemon() {
    OPAQ_CHECK_OK(server.Serve<Key>("s", []() -> Result<QuerySession<Key>> {
      DatasetSpec spec;
      spec.n = 4096;
      spec.seed = 11;
      OpaqConfig config;
      config.run_size = 1024;
      config.samples_per_run = 32;
      return Engine<Key>(config,
                         Source<Key>::FromVector(GenerateDataset<Key>(spec)))
          .Build();
    }));
    OPAQ_CHECK_OK(server.Start());
  }
};

/// Sends one frame of `op` stamped with `version` on a fresh connection to
/// `port` and returns every frame the server answers before it closes.
std::vector<WireFrame> AnswersUntilClose(uint16_t port, uint16_t version,
                                         uint16_t op,
                                         const std::vector<uint8_t>& payload) {
  auto conn = TcpConnection::Connect("127.0.0.1", port,
                                     /*receive_timeout_seconds=*/10);
  OPAQ_CHECK_OK(conn.status());
  WireFrameHeader header = EncodeFrameHeader(static_cast<WireOp>(op),
                                             payload.data(), payload.size());
  header.version = version;
  OPAQ_CHECK_OK(conn->WriteFull(&header, sizeof(header), payload.data(),
                                payload.size()));
  std::vector<WireFrame> answers;
  for (;;) {
    auto frame = ReceiveFrame(*conn);
    if (!frame.ok()) break;
    answers.push_back(std::move(frame).value());
  }
  return answers;
}

/// Expects `answers` to be exactly one error frame whose status has `code`
/// and whose message contains `text`.
void ExpectOneErrorFrame(const std::vector<WireFrame>& answers,
                         StatusCode code, const std::string& text) {
  ASSERT_EQ(answers.size(), 1u);
  ASSERT_EQ(answers[0].op, static_cast<uint16_t>(WireOp::kError));
  const Status carried = DecodeErrorPayload(answers[0].payload.data(),
                                            answers[0].payload.size());
  EXPECT_EQ(carried.code(), code);
  EXPECT_NE(carried.message().find(text), std::string::npos)
      << carried.ToString();
}

TEST(HostileVersionTest, EveryOtherVersionDrawsOneErrorFrameThenClose) {
  HostileNode node;
  HostileQueryDaemon daemon;
  const uint16_t ping = static_cast<uint16_t>(WireOp::kPing);
  for (uint16_t port : {node.server.port(), daemon.server.port()}) {
    for (uint16_t version : {0, 1, 2, 3, 4, 5, 6, 8, 0xFFFF}) {
      SCOPED_TRACE("port " + std::to_string(port) + ", version " +
                   std::to_string(version));
      // An empty PING, so the server has read every byte sent before it
      // hangs up.
      ExpectOneErrorFrame(AnswersUntilClose(port, version, ping, {}),
                          StatusCode::kIoError,
                          "version " + std::to_string(version) +
                              " (this build speaks only version " +
                              std::to_string(kWireVersion) + ")");
    }
    auto fresh = TcpConnection::Connect("127.0.0.1", port,
                                        /*receive_timeout_seconds=*/10);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_TRUE(StillServes(*fresh));
  }
}

TEST(HostileVersionTest, RetiredHelloOpsAreUnknownOps) {
  HostileNode node;
  HostileQueryDaemon daemon;
  // The 4-byte payload an old HELLO / HELLO_ACK carried.
  const std::vector<uint8_t> hello = {6, 0, 0, 0};
  for (uint16_t port : {node.server.port(), daemon.server.port()}) {
    for (uint16_t op : {8, 9}) {
      SCOPED_TRACE("port " + std::to_string(port) + ", op " +
                   std::to_string(op));
      ExpectOneErrorFrame(AnswersUntilClose(port, kWireVersion, op, hello),
                          StatusCode::kUnimplemented,
                          "does not speak op ? (" + std::to_string(op) + ")");
    }
  }
}

TEST(HostileExtentStreamTest, ShortFrameAfterALongOneIsReadAtItsOwnLength) {
  // Extent 0 holds random keys and packs long; extent 1 repeats one key and
  // packs short.
  constexpr uint64_t kExtent = 1024;
  DatasetSpec spec;
  spec.n = kExtent;
  spec.seed = 11;
  std::vector<Key> data = GenerateDataset<Key>(spec);
  data.resize(2 * kExtent, Key{42});
  MemoryBlockDevice device;
  ExtentWriterOptions writer;
  writer.extent_elements = kExtent;
  writer.codec = ExtentCodec::kDelta;
  ASSERT_TRUE(WriteExtents<Key>(data, {&device}, writer).ok());
  auto file = ExtentFile::Open({&device});
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<uint8_t> stored[2];
  for (uint64_t e = 0; e < 2; ++e) {
    stored[e].resize(file->StoredExtentBytes(e));
    ASSERT_TRUE(file->ReadStoredExtent(e, stored[e].data()).ok());
  }
  ASSERT_GT(stored[0].size(), 2 * stored[1].size());
  // A hostile node's third frame: extent 0 cut to the short frame's
  // length. Its missing tail is exactly what the buffer still holds.
  const std::vector<uint8_t> cut(stored[0].begin(),
                                 stored[0].begin() + stored[1].size());

  auto listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::thread node([&] {
    auto conn = listener->Accept();
    if (!conn.ok()) return;
    const std::vector<uint8_t>* frames[] = {&stored[0], &stored[1], &cut};
    for (const std::vector<uint8_t>* frame : frames) {
      if (!SendFrame(*conn, WireOp::kExtentData, frame->data(), frame->size())
               .ok()) {
        return;
      }
    }
  });
  auto client = NodeClient::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<uint8_t> buffer;
  std::vector<Key> decoded(kExtent);
  auto decode = [&](size_t len, uint64_t e) {
    return DecodeStoredExtent(buffer.data(), len, e, kExtent * sizeof(Key),
                              sizeof(Key), /*verify_crc=*/true,
                              decoded.data(), nullptr);
  };
  auto len = client->ReceiveExtents(&buffer);
  ASSERT_TRUE(len.ok()) << len.status().ToString();
  EXPECT_EQ(*len, stored[0].size());
  ASSERT_TRUE(decode(*len, 0).ok());
  EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(), data.begin()));

  len = client->ReceiveExtents(&buffer);
  ASSERT_TRUE(len.ok()) << len.status().ToString();
  EXPECT_EQ(*len, stored[1].size());
  ASSERT_TRUE(decode(*len, 1).ok());
  EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(),
                         data.begin() + kExtent));

  len = client->ReceiveExtents(&buffer);
  ASSERT_TRUE(len.ok()) << len.status().ToString();
  EXPECT_EQ(*len, cut.size());
  // The whole extent 0 is still in the buffer; read at the frame's own
  // length it is a truncated extent.
  ASSERT_TRUE(decode(stored[0].size(), 0).ok());
  const Status truncated = decode(*len, 0);
  EXPECT_EQ(truncated.code(), StatusCode::kIoError) << truncated.ToString();
  node.join();
}

}  // namespace
}  // namespace opaq
