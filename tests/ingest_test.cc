// Tests for the streaming ingest subsystem (src/ingest): LiveDataset
// durability and crash recovery, LiveDatasetReader over mixed plain/packed
// segments, QuerySession::Absorb incremental refresh (byte-identical to a
// from-scratch rebuild), wire-v5 remote appends, the QueryServer refresher
// path under concurrent queries (the TSan row), and WindowedSession's
// time-windowed ring.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "core/sketch_io.h"
#include "data/dataset.h"
#include "ingest/live_dataset.h"
#include "ingest/windowed_session.h"
#include "io/block_device.h"
#include "io/tempdir.h"
#include "net/client.h"
#include "net/node_server.h"
#include "net/query_client.h"
#include "net/query_server.h"
#include "net/remote_source.h"
#include "net/wire_query.h"
#include "opaq/engine.h"
#include "opaq/query.h"
#include "opaq/source.h"
#include "util/check.h"

namespace opaq {
namespace {

using Key = uint64_t;
using Request = QueryRequest<Key>;

OpaqConfig SmallConfig() {
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  return config;
}

std::vector<Key> Batch(uint64_t n, uint64_t seed) {
  DatasetSpec spec;
  spec.n = n;
  spec.seed = seed;
  spec.distribution = Distribution::kUniform;
  return GenerateDataset<Key>(spec);
}

std::vector<uint8_t> ListBytes(const SampleList<Key>& list) {
  MemoryBlockDevice out;
  OPAQ_CHECK_OK(SaveSampleList(list, &out));
  auto size = out.Size();
  OPAQ_CHECK_OK(size.status());
  std::vector<uint8_t> bytes(*size);
  OPAQ_CHECK_OK(out.ReadAt(0, bytes.data(), bytes.size()));
  return bytes;
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  OPAQ_CHECK(::stat(path.c_str(), &st) == 0);
  return static_cast<uint64_t>(st.st_size);
}

// ------------------------------------------------------------ round trip --

TEST(LiveDatasetTest, AppendAndReadBackAcrossReopen) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");

  std::vector<Key> all;
  {
    auto live = LiveDataset<Key>::Create(dir);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    for (uint64_t seed : {1u, 2u}) {
      auto batch = Batch(1000 + seed * 777, seed);
      ASSERT_TRUE(live->Append(batch).ok());
      all.insert(all.end(), batch.begin(), batch.end());
    }
    EXPECT_EQ(live->total_elements(), all.size());
    EXPECT_EQ(live->num_segments(), 2u);
  }
  // Reopen the writer (crash-restart shape) and keep appending.
  {
    auto live = LiveDataset<Key>::Open(dir);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_EQ(live->total_elements(), all.size());
    auto batch = Batch(1, 3);  // single-element segment
    ASSERT_TRUE(live->Append(batch).ok());
    all.insert(all.end(), batch.begin(), batch.end());
    EXPECT_EQ(live->num_segments(), 3u);
  }

  auto reader = LiveDatasetReader<Key>::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->size(), all.size());
  EXPECT_EQ(reader->num_segments(), 3u);
  std::vector<Key> read(all.size());
  ASSERT_TRUE(reader->Read(0, read.size(), read.data()).ok());
  EXPECT_EQ(read, all);

  // Offset reads spanning segment boundaries, and past-end rejection.
  std::vector<Key> mid(500);
  ASSERT_TRUE(reader->Read(1500, mid.size(), mid.data()).ok());
  EXPECT_EQ(mid, std::vector<Key>(all.begin() + 1500, all.begin() + 2000));
  Key one;
  EXPECT_EQ(reader->Read(all.size(), 1, &one).code(),
            StatusCode::kOutOfRange);
}

TEST(LiveDatasetTest, PackedAndPlainSegmentsMixFreely) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");

  std::vector<Key> all;
  {
    auto live = LiveDataset<Key>::Create(dir);
    ASSERT_TRUE(live.ok());
    auto batch = Batch(3000, 10);
    ASSERT_TRUE(live->Append(batch).ok());
    all.insert(all.end(), batch.begin(), batch.end());
  }
  {
    LiveDatasetOptions options;
    options.pack = true;
    options.codec = ExtentCodec::kDelta;
    options.extent_elements = 512;
    auto live = LiveDataset<Key>::Open(dir, options);
    ASSERT_TRUE(live.ok());
    auto batch = Batch(2500, 11);
    ASSERT_TRUE(live->Append(batch).ok());
    all.insert(all.end(), batch.begin(), batch.end());
  }

  auto reader = LiveDatasetReader<Key>::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->size(), all.size());
  std::vector<Key> read(all.size());
  ASSERT_TRUE(reader->Read(0, read.size(), read.data()).ok());
  EXPECT_EQ(read, all);

  // The packed segment is marked in the manifest.
  auto info = ReadLiveManifestInfo(dir);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->records.size(), 2u);
  EXPECT_EQ(info->records[0].flags & LiveManifestRecord::kFlagPacked, 0u);
  EXPECT_EQ(info->records[1].flags & LiveManifestRecord::kFlagPacked,
            LiveManifestRecord::kFlagPacked);
}

TEST(LiveDatasetTest, CreateOpenContractErrors) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");
  EXPECT_EQ(LiveDataset<Key>::Open(dir).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(LiveDatasetReader<Key>::Open(dir).status().code(),
            StatusCode::kNotFound);
  auto live = LiveDataset<Key>::Create(dir);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(LiveDataset<Key>::Create(dir).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(live->Append({}).ok());  // empty batches are refused
  // A different key type must be rejected, not misread.
  EXPECT_EQ(LiveDataset<uint32_t>::Open(dir).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LiveDatasetReader<uint32_t>::Open(dir).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------- incremental refresh ----

TEST(AbsorbTest, AbsorbMatchesFromScratchRebuildByteIdentically) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");
  const OpaqConfig config = SmallConfig();

  // Deliberately ragged segments: raggedness is fine because Absorb always
  // starts the delta on a segment boundary, and live segments chunk into
  // runs independently.
  auto live = LiveDataset<Key>::Create(dir);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->Append(Batch(3000, 21)).ok());
  ASSERT_TRUE(live->Append(Batch(1234, 22)).ok());

  auto base_source = Source<Key>::OpenLive(dir);
  ASSERT_TRUE(base_source.ok()) << base_source.status().ToString();
  auto session = Engine<Key>(config, *base_source).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const uint64_t have = session->total_elements();
  ASSERT_EQ(have, 4234u);

  // New segments land while the session is serving.
  ASSERT_TRUE(live->Append(Batch(2000, 23)).ok());
  ASSERT_TRUE(live->Append(Batch(567, 24)).ok());

  // Incremental path: sketch ONLY the tail, merge into the session.
  auto tail = Source<Key>::OpenLive(dir, have);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  auto delta = Engine<Key>(config, *tail).Build();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  QuerySession<Key> absorbed = std::move(session).value();
  ASSERT_TRUE(absorbed.Absorb(delta->sample_list()).ok());
  EXPECT_EQ(absorbed.total_elements(), 6801u);

  // From-scratch path over the same live dataset.
  auto full_source = Source<Key>::OpenLive(dir);
  ASSERT_TRUE(full_source.ok());
  auto rebuilt = Engine<Key>(config, *full_source).Build();
  ASSERT_TRUE(rebuilt.ok());

  EXPECT_EQ(ListBytes(absorbed.sample_list()),
            ListBytes(rebuilt->sample_list()))
      << "Absorb(delta) must be byte-identical to a full rebuild";

  // And the absorbed session answers queries (same answers as the rebuild).
  std::vector<Request> batch = {Request::Quantile(0.5),
                                Request::EquiQuantiles(4)};
  auto a = absorbed.Query({batch.data(), batch.size()});
  auto b = rebuilt->Query({batch.data(), batch.size()});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->results.size(), b->results.size());
  for (size_t i = 0; i < a->results.size(); ++i) {
    ASSERT_EQ(a->results[i].estimates.size(),
              b->results[i].estimates.size());
    for (size_t j = 0; j < a->results[i].estimates.size(); ++j) {
      EXPECT_EQ(a->results[i].estimates[j].lower,
                b->results[i].estimates[j].lower);
      EXPECT_EQ(a->results[i].estimates[j].upper,
                b->results[i].estimates[j].upper);
    }
  }
}

TEST(AbsorbTest, EmptyDeltaIsANoOpAndMismatchedSubrunRejected) {
  const OpaqConfig config = SmallConfig();
  auto data = Batch(5000, 31);
  auto session =
      Engine<Key>(config, Source<Key>::FromVector(data)).Build();
  ASSERT_TRUE(session.ok());
  auto before = ListBytes(session->sample_list());
  ASSERT_TRUE(session->Absorb(SampleList<Key>()).ok());
  EXPECT_EQ(ListBytes(session->sample_list()), before);

  // A delta sketched at a different sub-run size cannot merge.
  OpaqConfig other = config;
  other.run_size = 500;  // sub-run 5, not 10
  auto delta = Engine<Key>(other, Source<Key>::FromVector(data)).Build();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(session->Absorb(delta->sample_list()).code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ crash recovery ----

TEST(LiveManifestTest, TruncationAtEveryLengthRecoversLongestValidPrefix) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");
  const uint64_t seg_sizes[] = {40, 20, 30};
  {
    auto live = LiveDataset<Key>::Create(dir);
    ASSERT_TRUE(live.ok());
    uint64_t seed = 1;
    for (uint64_t n : seg_sizes) {
      ASSERT_TRUE(live->Append(Batch(n, seed++)).ok());
    }
  }
  const std::string manifest = dir + "/MANIFEST";
  const uint64_t full = FileSize(manifest);
  ASSERT_EQ(full, sizeof(LiveManifestHeader) + 3 * sizeof(LiveManifestRecord));

  // Truncate downward through EVERY byte length — each is a state a
  // crashed writer could leave — and assert the reader sees exactly the
  // whole-record durable prefix, never an error past the header.
  for (uint64_t len = full; len + 1 > 0; --len) {
    ASSERT_EQ(::truncate(manifest.c_str(), static_cast<off_t>(len)), 0);
    auto info = ReadLiveManifestInfo(dir);
    if (len < sizeof(LiveManifestHeader)) {
      EXPECT_FALSE(info.ok()) << "len=" << len;
      continue;
    }
    ASSERT_TRUE(info.ok()) << "len=" << len << ": "
                           << info.status().ToString();
    const size_t expect_records =
        (len - sizeof(LiveManifestHeader)) / sizeof(LiveManifestRecord);
    EXPECT_EQ(info->records.size(), expect_records) << "len=" << len;
    uint64_t expect_total = 0;
    for (size_t i = 0; i < expect_records; ++i) expect_total += seg_sizes[i];
    EXPECT_EQ(info->total_elements, expect_total) << "len=" << len;
    // The reader opens the recovered prefix (segment files are intact).
    auto reader = LiveDatasetReader<Key>::Open(dir);
    ASSERT_TRUE(reader.ok()) << "len=" << len;
    EXPECT_EQ(reader->size(), expect_total) << "len=" << len;
  }
}

TEST(LiveManifestTest, CorruptRecordStopsThePrefixStickily) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");
  {
    auto live = LiveDataset<Key>::Create(dir);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live->Append(Batch(10, 1)).ok());
    ASSERT_TRUE(live->Append(Batch(20, 2)).ok());
    ASSERT_TRUE(live->Append(Batch(30, 3)).ok());
  }
  // Flip one byte inside record #2's element_count: its CRC no longer
  // matches, so records #2 AND #3 (valid but past the tear) are dropped.
  const std::string manifest = dir + "/MANIFEST";
  {
    std::fstream f(manifest,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(sizeof(LiveManifestHeader) +
                                        sizeof(LiveManifestRecord) + 3));
    char byte = 0x5A;
    f.write(&byte, 1);
  }
  auto info = ReadLiveManifestInfo(dir);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->records.size(), 1u);
  EXPECT_EQ(info->total_elements, 10u);
  auto reader = LiveDatasetReader<Key>::Open(dir);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->size(), 10u);
}

TEST(LiveManifestTest, OrphanSegmentAndTornTailAreInvisible) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");
  {
    auto live = LiveDataset<Key>::Create(dir);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live->Append(Batch(100, 1)).ok());
  }
  // A crashed writer that died between segment fsync and manifest append
  // leaves an orphan segment file with no record: invisible.
  {
    std::ofstream orphan(dir + "/" + LiveSegmentFileName(2),
                         std::ios::binary);
    orphan << "half-written garbage";
  }
  // ...or a torn (partial) manifest record: also invisible.
  {
    std::ofstream torn(dir + "/MANIFEST",
                       std::ios::binary | std::ios::app);
    const char garbage[13] = "torn-record!";
    torn.write(garbage, sizeof(garbage));
  }
  auto reader = LiveDatasetReader<Key>::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->size(), 100u);
  EXPECT_EQ(reader->num_segments(), 1u);

  // The next writer reuses the orphan's slot: append proceeds normally and
  // the new segment is the one the manifest names.
  auto live = LiveDataset<Key>::Open(dir);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE(live->Append(Batch(50, 9)).ok());
  auto reopened = LiveDatasetReader<Key>::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->size(), 150u);
  std::vector<Key> read(150);
  EXPECT_TRUE(reopened->Read(0, 150, read.data()).ok());
}

TEST(LiveDatasetReaderTest, SegmentShorterThanItsRecordFailsOpen) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");
  {
    auto live = LiveDataset<Key>::Create(dir);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live->Append(Batch(1000, 1)).ok());
  }
  const std::string seg = dir + "/" + LiveSegmentFileName(1);
  // Chop data off the END of the segment (the header stays valid, the
  // element count it promises does not): Open must refuse loudly rather
  // than serve a silently shorter dataset.
  ASSERT_EQ(::truncate(seg.c_str(),
                       static_cast<off_t>(FileSize(seg) - 8 * 100)),
            0);
  auto reader = LiveDatasetReader<Key>::Open(dir);
  EXPECT_FALSE(reader.ok());
  // The exact code depends on which validator trips first (the segment's
  // own header vs. the manifest cross-check); what matters is that a
  // dataset shorter than its durable manifest never opens.
  EXPECT_TRUE(reader.status().code() == StatusCode::kIoError ||
              reader.status().code() == StatusCode::kInvalidArgument)
      << reader.status().ToString();
}

TEST(LiveDatasetReaderTest, RunSourceErrorIsSticky) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");
  {
    auto live = LiveDataset<Key>::Create(dir);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live->Append(Batch(2000, 1)).ok());
  }
  auto reader = LiveDatasetReader<Key>::Open(dir);
  ASSERT_TRUE(reader.ok());
  // The disk dies AFTER open: chop the segment under the open reader.
  const std::string seg = dir + "/" + LiveSegmentFileName(1);
  ASSERT_EQ(::truncate(seg.c_str(), 64), 0);
  ReadOptions options;
  options.run_size = 500;
  auto source = reader->OpenRuns(options);
  ASSERT_NE(source, nullptr);
  std::vector<Key> run;
  Status first = Status::OK();
  while (true) {
    auto more = source->NextRun(&run);
    if (!more.ok()) {
      first = more.status();
      break;
    }
    ASSERT_TRUE(*more) << "stream ended without surfacing the bad read";
  }
  EXPECT_FALSE(first.ok());
  // Sticky: every subsequent call returns the same failure, never data.
  auto again = source->NextRun(&run);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), first.code());
}

// ------------------------------------------------------- wire append ----

// A minimal live export: what opaq_noded --live builds, reduced to the
// hooks (serialised appends + a refreshing element count).
ExportedDataset MakeLiveExport(std::shared_ptr<LiveDataset<Key>> writer) {
  ExportedDataset dataset;
  dataset.key_type = static_cast<uint32_t>(KeyTraits<Key>::kType);
  dataset.element_size = sizeof(Key);
  dataset.element_count = writer->total_elements();
  auto mutex = std::make_shared<std::mutex>();
  dataset.read = [writer, mutex](uint64_t first, uint64_t count,
                                 void* out) -> Status {
    std::lock_guard<std::mutex> lock(*mutex);
    auto reader = LiveDatasetReader<Key>::Open(writer->dir());
    OPAQ_RETURN_IF_ERROR(reader.status());
    return reader->Read(first, count, static_cast<Key*>(out));
  };
  dataset.append = [writer, mutex](const uint8_t* elements, uint64_t count)
      -> Result<WireAppendAck> {
    std::lock_guard<std::mutex> lock(*mutex);
    std::vector<Key> values(count);
    std::memcpy(values.data(), elements, count * sizeof(Key));
    OPAQ_RETURN_IF_ERROR(writer->Append(values));
    WireAppendAck ack;
    ack.total_elements = writer->total_elements();
    ack.num_segments = writer->num_segments();
    return ack;
  };
  dataset.live_count = [writer, mutex]() {
    std::lock_guard<std::mutex> lock(*mutex);
    return writer->total_elements();
  };
  dataset.owner = writer;
  return dataset;
}

TEST(WireAppendTest, RemoteAppendRoundTripAndContractErrors) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");
  auto created = LiveDataset<Key>::Create(dir);
  ASSERT_TRUE(created.ok());
  auto writer =
      std::make_shared<LiveDataset<Key>>(std::move(created).value());

  NodeServer node;
  node.Export("live", MakeLiveExport(writer));
  // A static export alongside, to prove appends to it are refused.
  auto static_data = Batch(500, 77);
  MemoryBlockDevice static_device;
  ASSERT_TRUE(WriteDataset(static_data, &static_device).ok());
  auto static_file = TypedDataFile<Key>::Open(&static_device);
  ASSERT_TRUE(static_file.ok());
  node.Export("frozen", &*static_file);
  ASSERT_TRUE(node.Start().ok());

  auto client = NodeClient::Connect("127.0.0.1", node.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto batch1 = Batch(4000, 1);
  auto ack = client->Append("live", batch1.data(), batch1.size(),
                            sizeof(Key));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->total_elements, 4000u);
  EXPECT_EQ(ack->num_segments, 1u);
  auto batch2 = Batch(123, 2);
  ack = client->Append("live", batch2.data(), batch2.size(), sizeof(Key));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->total_elements, 4123u);
  EXPECT_EQ(ack->num_segments, 2u);

  // The committed data is durable and readable on the node's disk.
  auto reader = LiveDatasetReader<Key>::Open(dir);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->size(), 4123u);

  // Appends to a static export: Unimplemented, connection stays open.
  auto frozen = client->Append("frozen", batch2.data(), batch2.size(),
                               sizeof(Key));
  EXPECT_EQ(frozen.status().code(), StatusCode::kUnimplemented);
  EXPECT_TRUE(client->Ping().ok());
  // Unknown dataset: NotFound, still open.
  auto missing = client->Append("nope", batch2.data(), batch2.size(),
                                sizeof(Key));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client->Ping().ok());
  // Client-side validation: zero-element and oversized batches never hit
  // the wire.
  EXPECT_EQ(client->Append("live", batch2.data(), 0, sizeof(Key)).status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->Append("live", batch2.data(), UINT64_MAX, sizeof(Key))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Server-side byte validation: an element-size lie (payload bytes not
  // count * element_size) is InvalidArgument, connection stays open.
  auto lied = client->Append("live", batch2.data(), batch2.size(),
                             sizeof(uint32_t));
  EXPECT_EQ(lied.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client->Ping().ok());

  // kOpenDataset reflects the LIVE count, not the count frozen at Export.
  auto provider =
      RemoteRunProvider<Key>::Connect(node.address() + "/live");
  ASSERT_TRUE(provider.ok()) << provider.status().ToString();
  EXPECT_EQ(provider->size(), 4123u);
}

// ----------------------------------- append-while-serving (the TSan row) --

TEST(IngestConcurrencyTest, AppendWhileQueryingThroughRefreshingServer) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");
  const OpaqConfig config = SmallConfig();
  auto created = LiveDataset<Key>::Create(dir);
  ASSERT_TRUE(created.ok());
  auto writer =
      std::make_shared<LiveDataset<Key>>(std::move(created).value());
  ASSERT_TRUE(writer->Append(Batch(5000, 100)).ok());

  // The exact builder/refresher pair opaq_queryd --watch installs.
  auto builder = [dir, config]() -> Result<QuerySession<Key>> {
    auto source = Source<Key>::OpenLive(dir);
    if (!source.ok()) return source.status();
    return Engine<Key>(config, *source).Build();
  };
  auto refresher =
      [dir, config](
          const QuerySession<Key>& current) -> Result<QuerySession<Key>> {
    auto info = ReadLiveManifestInfo(dir);
    if (!info.ok()) return info.status();
    if (info->total_elements == current.total_elements()) return current;
    auto tail = Source<Key>::OpenLive(dir, current.total_elements());
    if (!tail.ok()) return tail.status();
    auto delta = Engine<Key>(config, *tail).Build();
    if (!delta.ok()) return delta.status();
    QuerySession<Key> next = current;
    std::vector<Source<Key>> delta_sources;
    delta_sources.push_back(std::move(tail).value());
    OPAQ_RETURN_IF_ERROR(
        next.Absorb(delta->sample_list(), std::move(delta_sources)));
    return next;
  };

  QueryServer server;
  OPAQ_CHECK_OK(server.Serve<Key>("live", builder, refresher));
  OPAQ_CHECK_OK(server.Start());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t]() {
      auto client = QueryClient<Key>::Connect("127.0.0.1", server.port(),
                                              "live");
      OPAQ_CHECK_OK(client.status());
      std::vector<Request> batch = {Request::Quantile(0.5),
                                    Request::Quantile(0.99)};
      while (!stop.load(std::memory_order_acquire)) {
        auto payload = client->QueryPayload({batch.data(), batch.size()});
        if (!payload.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  // Appends + incremental refreshes race the query threads.
  const int kAppends = 5;
  uint64_t expect_total = 5000;
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(writer->Append(Batch(2000, 200 + i)).ok());
    expect_total += 2000;
    OPAQ_CHECK_OK(server.Refresh("live"));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  // After the dust settles: epoch advanced once per refresh, the session
  // covers every committed element, and its state is byte-identical to a
  // from-scratch rebuild.
  auto client =
      QueryClient<Key>::Connect("127.0.0.1", server.port(), "live");
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client->info().epoch, 1u + kAppends);
  EXPECT_EQ(client->info().total_elements, expect_total);
  auto rebuilt = builder();
  ASSERT_TRUE(rebuilt.ok());
  std::vector<Request> batch = {Request::EquiQuantiles(10)};
  auto remote = client->QueryPayload({batch.data(), batch.size()});
  ASSERT_TRUE(remote.ok());
  auto local = rebuilt->Query({batch.data(), batch.size()});
  ASSERT_TRUE(local.ok());
  auto expected = EncodeQueryResultsPayload(*local);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*remote, *expected)
      << "absorbed epochs diverge from a from-scratch rebuild";
  server.Stop();
}

TEST(IngestConcurrencyTest, ConcurrentAppendersSerialiseOnTheNode) {
  auto tmp = TempDir::Make("opaq-ingest");
  ASSERT_TRUE(tmp.ok());
  const std::string dir = tmp->FilePath("live");
  auto created = LiveDataset<Key>::Create(dir);
  ASSERT_TRUE(created.ok());
  auto writer =
      std::make_shared<LiveDataset<Key>>(std::move(created).value());
  NodeServer node;
  node.Export("live", MakeLiveExport(writer));
  ASSERT_TRUE(node.Start().ok());

  constexpr int kThreads = 4, kBatches = 8, kPerBatch = 500;
  std::vector<std::thread> appenders;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    appenders.emplace_back([&, t]() {
      auto client = NodeClient::Connect("127.0.0.1", node.port());
      OPAQ_CHECK_OK(client.status());
      for (int b = 0; b < kBatches; ++b) {
        auto batch = Batch(kPerBatch, 1000 + t * 100 + b);
        auto ack = client->Append("live", batch.data(), batch.size(),
                                  sizeof(Key));
        if (!ack.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& appender : appenders) appender.join();
  EXPECT_EQ(failures.load(), 0);
  auto reader = LiveDatasetReader<Key>::Open(dir);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->size(),
            uint64_t{kThreads} * kBatches * kPerBatch);
  EXPECT_EQ(reader->num_segments(), uint64_t{kThreads} * kBatches);
}

// ----------------------------------------------------- windowed sessions --

TEST(WindowedSessionTest, RingEvictionMatchesGroundTruthRebuild) {
  const OpaqConfig config = SmallConfig();
  constexpr size_t kCapacity = 4, kWindows = 6;
  constexpr uint64_t kPerWindow = 5000;  // whole runs: rebuild-comparable
  WindowedSession<Key> ring(kCapacity);
  std::vector<std::vector<Key>> batches;
  for (size_t w = 0; w < kWindows; ++w) {
    batches.push_back(Batch(kPerWindow, 300 + w));
    auto window =
        Engine<Key>(config, Source<Key>::FromVector(batches.back()))
            .Build();
    ASSERT_TRUE(window.ok());
    ASSERT_TRUE(ring.Push(window->sample_list()).ok());
  }
  EXPECT_EQ(ring.size(), kCapacity);
  EXPECT_EQ(ring.evicted(), kWindows - kCapacity);
  EXPECT_EQ(ring.total_elements(), kCapacity * kPerWindow);

  // Ground truth: rebuild from scratch over exactly the surviving windows'
  // concatenated data. Window length is a whole number of runs, so the
  // merged ring must be BYTE-identical, not just approximately right.
  auto check = [&](size_t last_n) {
    const size_t n = last_n == 0 ? kCapacity : std::min(last_n, kCapacity);
    std::vector<Key> survivors;
    for (size_t w = kWindows - n; w < kWindows; ++w) {
      survivors.insert(survivors.end(), batches[w].begin(),
                       batches[w].end());
    }
    auto rebuilt =
        Engine<Key>(config, Source<Key>::FromVector(survivors)).Build();
    ASSERT_TRUE(rebuilt.ok());
    auto merged = ring.Merged(last_n);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged->total_elements(), n * kPerWindow);
    EXPECT_EQ(ListBytes(merged->sample_list()),
              ListBytes(rebuilt->sample_list()))
        << "last_n=" << last_n;
  };
  check(0);  // all surviving windows
  check(2);  // "p99 over the last 2 windows"
  check(1);
  check(99);  // clamped to the ring size

  // The merged session is a full QuerySession: certified brackets come out.
  auto merged = ring.Merged();
  ASSERT_TRUE(merged.ok());
  std::vector<Request> batch = {Request::Quantile(0.99)};
  auto answers = merged->Query({batch.data(), batch.size()});
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->results.size(), 1u);
  EXPECT_LE(answers->results[0].estimates[0].lower,
            answers->results[0].estimates[0].upper);
}

TEST(WindowedSessionTest, ContractErrors) {
  WindowedSession<Key> ring(2);
  EXPECT_EQ(ring.Merged().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ring.Push(SampleList<Key>()).code(),
            StatusCode::kInvalidArgument);

  const OpaqConfig config = SmallConfig();
  auto window =
      Engine<Key>(config, Source<Key>::FromVector(Batch(2000, 1))).Build();
  ASSERT_TRUE(window.ok());
  ASSERT_TRUE(ring.Push(window->sample_list()).ok());

  // A window sketched at a different sub-run size cannot join the ring.
  OpaqConfig other = config;
  other.run_size = 500;
  auto alien =
      Engine<Key>(other, Source<Key>::FromVector(Batch(2000, 2))).Build();
  ASSERT_TRUE(alien.ok());
  EXPECT_EQ(ring.Push(alien->sample_list()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ring.size(), 1u);
}

}  // namespace
}  // namespace opaq
