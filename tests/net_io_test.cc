// Data-node subsystem tests over real loopback TCP: server/client
// handshake and range reads, remote run streams matching the local reader
// element for element (sync and pipelined async), striped exports,
// concurrent per-stream connections, and the facade path
// (`Source::OpenRemote` -> multi-shard `Engine`) answering identically to
// a single-process run.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "io/block_device.h"
#include "io/data_file.h"
#include "io/run_reader.h"
#include "io/striped_data_file.h"
#include "net/client.h"
#include "net/export_spec.h"
#include "net/node_server.h"
#include "net/remote_source.h"
#include "opaq/engine.h"
#include "opaq/query.h"
#include "opaq/source.h"

namespace opaq {
namespace {

using Key = uint64_t;

/// One loopback node serving `data` as dataset "data" (plus, when
/// `stripes` > 1, the same data as the striped dataset "striped").
struct NodeFixture {
  std::vector<Key> data;
  std::vector<std::unique_ptr<MemoryBlockDevice>> devices;
  std::unique_ptr<TypedDataFile<Key>> file;
  std::unique_ptr<StripedDataFile<Key>> striped;
  NodeServer server;

  explicit NodeFixture(uint64_t n, NodeServerOptions options = {},
                       int stripes = 1, uint64_t chunk = 333)
      : data(MakeData(n)), server(options) {
    devices.push_back(std::make_unique<MemoryBlockDevice>());
    OPAQ_CHECK_OK(WriteDataset(data, devices.back().get()));
    auto opened = TypedDataFile<Key>::Open(devices.back().get());
    OPAQ_CHECK_OK(opened.status());
    file = std::make_unique<TypedDataFile<Key>>(std::move(opened).value());
    server.Export("data", file.get());
    if (stripes > 1) {
      std::vector<BlockDevice*> raw;
      for (int s = 0; s < stripes; ++s) {
        devices.push_back(std::make_unique<MemoryBlockDevice>());
        raw.push_back(devices.back().get());
      }
      auto written = WriteStriped(data, std::move(raw), chunk);
      OPAQ_CHECK_OK(written.status());
      striped = std::make_unique<StripedDataFile<Key>>(
          std::move(written).value());
      server.Export("striped", striped.get());
    }
    OPAQ_CHECK_OK(server.Start());
  }

  static std::vector<Key> MakeData(uint64_t n) {
    DatasetSpec spec;
    spec.n = n;
    spec.seed = 77;
    spec.distribution = Distribution::kZipf;
    return GenerateDataset<Key>(spec);
  }

  std::string spec(const std::string& name = "data") const {
    return server.address() + "/" + name;
  }
};

/// Drains a run source; dies on stream errors (these tests expect clean
/// streams — the failure paths live in net_failure_test).
std::vector<std::vector<Key>> Drain(RunSource<Key>* source) {
  std::vector<std::vector<Key>> runs;
  std::vector<Key> buffer;
  for (;;) {
    auto more = source->NextRun(&buffer);
    OPAQ_CHECK_OK(more.status());
    if (!*more) return runs;
    runs.push_back(buffer);
  }
}

TEST(ParseRemoteSpecTest, ValidAndInvalid) {
  auto spec = ParseRemoteSpec("node9.example.com:34601/sales/2026");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->host, "node9.example.com");
  EXPECT_EQ(spec->port, 34601);
  EXPECT_EQ(spec->dataset, "sales/2026");
  EXPECT_EQ(spec->ToString(), "node9.example.com:34601/sales/2026");

  for (const char* bad :
       {"", "host", "host:123", "host:123/", ":123/ds", "host:/ds",
        "host:0/ds", "host:65536/ds", "host:9x/ds"}) {
    EXPECT_FALSE(ParseRemoteSpec(bad).ok()) << bad;
  }
}

TEST(ParseRemoteSpecTest, HostsWithColons) {
  // Regression: hosts containing ':' (IPv6 literals) used to mis-split on
  // the FIRST colon, truncating the host and garbling the port. The spec
  // splits on the LAST colon before the '/', with optional brackets.
  auto bracketed = ParseRemoteSpec("[::1]:9000/ds");
  ASSERT_TRUE(bracketed.ok()) << bracketed.status().ToString();
  EXPECT_EQ(bracketed->host, "::1");
  EXPECT_EQ(bracketed->port, 9000);
  EXPECT_EQ(bracketed->dataset, "ds");
  // ToString re-brackets, and the round trip is the identity.
  EXPECT_EQ(bracketed->ToString(), "[::1]:9000/ds");
  auto round = ParseRemoteSpec(bracketed->ToString());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->host, bracketed->host);
  EXPECT_EQ(round->port, bracketed->port);
  EXPECT_EQ(round->dataset, bracketed->dataset);

  // Bare (unbracketed) colon hosts parse too: last colon wins.
  auto bare = ParseRemoteSpec("fe80::21:9000/metrics");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare->host, "fe80::21");
  EXPECT_EQ(bare->port, 9000);
  EXPECT_EQ(bare->dataset, "metrics");

  // Malformed colon-host specs stay rejected, with the dataset-name rule
  // enforced for every host shape.
  for (const char* bad : {"[::1]:9000/", "[::1:9000/ds", "::1]:9000/ds",
                          "[]:9000/ds", "[::1]:/ds", "[::1]/ds"}) {
    EXPECT_FALSE(ParseRemoteSpec(bad).ok()) << bad;
  }
  auto empty_name = ParseRemoteSpec("[::1]:9000/");
  ASSERT_FALSE(empty_name.ok());
  EXPECT_EQ(empty_name.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty_name.status().message().find("dataset"),
            std::string::npos);
}

TEST(ParseExportSpecsTest, SplitsOnFirstEqualsOnly) {
  // Regression: paths containing '=' (date-partitioned layouts and the
  // like) used to split the entry at the wrong place.
  auto specs = ParseExportSpecs("ds=/data/run=3.opaq,arr=/a/d=1+/b/d=2");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].name, "ds");
  EXPECT_EQ((*specs)[0].paths,
            (std::vector<std::string>{"/data/run=3.opaq"}));
  EXPECT_EQ((*specs)[1].name, "arr");
  EXPECT_EQ((*specs)[1].paths,
            (std::vector<std::string>{"/a/d=1", "/b/d=2"}));
}

TEST(ParseExportSpecsTest, DuplicateNamesAreAStartupError) {
  // Regression: a duplicate dataset name silently let the last entry win —
  // the node then served different bytes than the operator listed.
  auto dup = ParseExportSpecs("ds=/a.opaq,ds=/b.opaq");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);
  EXPECT_NE(dup.status().message().find("ds"), std::string::npos);

  for (const char* bad : {"", "=x", "ds=", "ds", "ds=a+,x=b", "ds=a,,x=b"}) {
    EXPECT_FALSE(ParseExportSpecs(bad).ok()) << "'" << bad << "'";
  }
}

TEST(NodeServerTest, StartRequiresExports) {
  NodeServer server;
  auto status = server.Start();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(NodeServerTest, PingOpenAndRead) {
  NodeFixture node(1000);
  auto client = NodeClient::Connect("127.0.0.1", node.server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ping().ok());

  auto info = client->OpenDataset("data");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->element_count, 1000u);
  EXPECT_EQ(info->element_size, sizeof(Key));
  EXPECT_EQ(info->key_type, static_cast<uint32_t>(KeyTraits<Key>::kType));
  EXPECT_GT(info->max_read_elements, 0u);

  auto missing = client->OpenDataset("nope");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // The NotFound answer is per-request: the connection stays usable.
  std::vector<Key> values(7);
  ASSERT_TRUE(client->ReadRange("data", 40, 7, values.data(),
                                values.size() * sizeof(Key))
                  .ok());
  for (int i = 0; i < 7; ++i) EXPECT_EQ(values[i], node.data[40 + i]);
}

TEST(NodeServerTest, BoundsAndSizeLimitsEnforced) {
  NodeServerOptions options;
  options.max_read_bytes = 64 * sizeof(Key);
  NodeFixture node(500, options);
  auto client = NodeClient::Connect("127.0.0.1", node.server.port());
  ASSERT_TRUE(client.ok());
  auto info = client->OpenDataset("data");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->max_read_elements, 64u);

  std::vector<Key> buffer(200);
  // Oversized request: rejected, connection survives.
  EXPECT_EQ(client
                ->ReadRange("data", 0, 100, buffer.data(),
                            100 * sizeof(Key))
                .code(),
            StatusCode::kInvalidArgument);
  // Past-the-end request: rejected, connection survives.
  EXPECT_EQ(client
                ->ReadRange("data", 480, 40, buffer.data(), 40 * sizeof(Key))
                .code(),
            StatusCode::kOutOfRange);
  // Zero-length request: rejected.
  EXPECT_EQ(client->ReadRange("data", 0, 0, buffer.data(), 0).code(),
            StatusCode::kInvalidArgument);
  // And a well-formed read still works on the same connection.
  EXPECT_TRUE(
      client->ReadRange("data", 490, 10, buffer.data(), 10 * sizeof(Key))
          .ok());
}

void ExpectRemoteMatchesLocal(const NodeFixture& node, uint64_t run_size,
                              IoMode io_mode, uint64_t depth,
                              uint64_t max_read_bytes_hint = 0) {
  (void)max_read_bytes_hint;
  auto provider = RemoteRunProvider<Key>::Connect(node.spec());
  ASSERT_TRUE(provider.ok()) << provider.status().ToString();
  EXPECT_EQ(provider->size(), node.data.size());

  ReadOptions options;
  options.run_size = run_size;
  options.io_mode = io_mode;
  options.prefetch_depth = depth;
  auto remote_runs = Drain(provider->OpenRuns(options).get());

  RunReader<Key> local(node.file.get(), run_size);
  std::vector<std::vector<Key>> local_runs;
  std::vector<Key> buffer;
  for (;;) {
    auto more = local.NextRun(&buffer);
    OPAQ_CHECK_OK(more.status());
    if (!*more) break;
    local_runs.push_back(buffer);
  }
  ASSERT_EQ(remote_runs.size(), local_runs.size())
      << "m=" << run_size << " mode=" << IoModeName(io_mode);
  for (size_t i = 0; i < local_runs.size(); ++i) {
    ASSERT_EQ(remote_runs[i], local_runs[i]) << "run " << i;
  }
}

TEST(RemoteRunProviderTest, MatchesLocalReaderAcrossModes) {
  NodeFixture node(10007);  // ragged tail
  for (uint64_t run_size : {1u, 100u, 999u, 10007u, 20000u}) {
    ExpectRemoteMatchesLocal(node, run_size, IoMode::kSync, 2);
    for (uint64_t depth : {1u, 2u, 5u}) {
      ExpectRemoteMatchesLocal(node, run_size, IoMode::kAsync, depth);
    }
  }
}

TEST(NodeServerTest, StartRejectsUnframeableReadBound) {
  NodeServerOptions options;
  options.max_read_bytes = uint64_t{kMaxWirePayload} + 1;
  NodeServer bad(options);
  std::vector<Key> data(10, 1);
  MemoryBlockDevice device;
  OPAQ_CHECK_OK(WriteDataset(data, &device));
  auto file = TypedDataFile<Key>::Open(&device);
  ASSERT_TRUE(file.ok());
  bad.Export("data", &*file);
  EXPECT_EQ(bad.Start().code(), StatusCode::kInvalidArgument);
}

TEST(NodeServerTest, SubElementReadBoundStillServesOneElementSlices) {
  // A bound below the element size must not strand the dataset: the node
  // advertises (and honors) one-element reads, so streams still complete.
  NodeServerOptions options;
  options.max_read_bytes = 4;  // < sizeof(Key)
  NodeFixture node(100, options);
  auto client = NodeClient::Connect("127.0.0.1", node.server.port());
  ASSERT_TRUE(client.ok());
  auto info = client->OpenDataset("data");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->max_read_elements, 1u);
  Key value = 0;
  ASSERT_TRUE(client->ReadRange("data", 42, 1, &value, sizeof(value)).ok());
  EXPECT_EQ(value, node.data[42]);
  ExpectRemoteMatchesLocal(node, 37, IoMode::kAsync, 2);
}

TEST(NodeServerTest, SequentialConnectionsAreReaped) {
  // A long-lived node must keep serving after many short-lived clients
  // (the accept loop reaps finished connection threads as it goes).
  NodeFixture node(50);
  for (int i = 0; i < 40; ++i) {
    auto client = NodeClient::Connect("127.0.0.1", node.server.port());
    ASSERT_TRUE(client.ok()) << "connection " << i;
    ASSERT_TRUE(client->Ping().ok()) << "connection " << i;
  }
  EXPECT_GE(node.server.connections_accepted(), 40u);
}

TEST(RemoteRunProviderTest, SmallReadBoundForcesManySlices) {
  // A tiny per-request bound exercises the slice/splice path: runs must
  // still come out identical, sync and async.
  NodeServerOptions options;
  options.max_read_bytes = 16 * sizeof(Key);
  NodeFixture node(4096, options);
  ExpectRemoteMatchesLocal(node, 1000, IoMode::kSync, 2);
  ExpectRemoteMatchesLocal(node, 1000, IoMode::kAsync, 3);
}

TEST(RemoteRunProviderTest, SubRangesClampLikeLocalReader) {
  NodeFixture node(5000);
  auto provider = RemoteRunProvider<Key>::Connect(node.spec());
  ASSERT_TRUE(provider.ok());
  struct Case {
    uint64_t first, count;
  } cases[] = {{0, 5000}, {100, 250}, {4990, UINT64_MAX}, {5000, 10}, {0, 0}};
  for (const Case& c : cases) {
    ReadOptions options;
    options.run_size = 128;
    options.io_mode = IoMode::kAsync;
    auto remote_runs =
        Drain(provider->OpenRuns(options, c.first, c.count).get());
    RunReader<Key> local(node.file.get(), 128, c.first, c.count);
    std::vector<std::vector<Key>> local_runs;
    std::vector<Key> buffer;
    for (;;) {
      auto more = local.NextRun(&buffer);
      OPAQ_CHECK_OK(more.status());
      if (!*more) break;
      local_runs.push_back(buffer);
    }
    ASSERT_EQ(remote_runs, local_runs)
        << "[" << c.first << ", +" << c.count << ")";
  }
}

TEST(RemoteRunProviderTest, StripedExportServesLogicalOrder) {
  NodeFixture node(9000, NodeServerOptions(), /*stripes=*/3, /*chunk=*/123);
  auto provider = RemoteRunProvider<Key>::Connect(node.spec("striped"));
  ASSERT_TRUE(provider.ok()) << provider.status().ToString();
  ReadOptions options;
  options.run_size = 777;
  options.io_mode = IoMode::kAsync;
  auto runs = Drain(provider->OpenRuns(options).get());
  std::vector<Key> flat;
  for (const auto& run : runs) flat.insert(flat.end(), run.begin(), run.end());
  EXPECT_EQ(flat, node.data);
}

TEST(RemoteRunProviderTest, ConcurrentStreamsFromOneProvider) {
  // Each OpenRuns dials its own connection; two threads streaming halves
  // of the dataset concurrently must each see exactly their half.
  NodeFixture node(20000);
  auto provider = RemoteRunProvider<Key>::Connect(node.spec());
  ASSERT_TRUE(provider.ok());
  const uint64_t half = 10000;
  std::vector<Key> lo, hi;
  std::thread lo_thread([&] {
    ReadOptions options;
    options.run_size = 512;
    options.io_mode = IoMode::kAsync;
    for (const auto& run : Drain(provider->OpenRuns(options, 0, half).get())) {
      lo.insert(lo.end(), run.begin(), run.end());
    }
  });
  std::thread hi_thread([&] {
    ReadOptions options;
    options.run_size = 512;
    options.io_mode = IoMode::kAsync;
    for (const auto& run :
         Drain(provider->OpenRuns(options, half, UINT64_MAX).get())) {
      hi.insert(hi.end(), run.begin(), run.end());
    }
  });
  lo_thread.join();
  hi_thread.join();
  EXPECT_EQ(lo, std::vector<Key>(node.data.begin(),
                                 node.data.begin() + half));
  EXPECT_EQ(hi,
            std::vector<Key>(node.data.begin() + half, node.data.end()));
  EXPECT_GE(node.server.connections_accepted(), 3u);  // handshake + 2 streams
}

TEST(RemoteSourceFacadeTest, OpenRemoteMultiShardEngineMatchesLocal) {
  // The acceptance shape: two loopback nodes, one Engine across them —
  // brackets and exact answers identical to a single-process run over the
  // same shards in the same order.
  NodeFixture a(15000), b(23000);

  auto remote_a = Source<Key>::OpenRemote(a.spec());
  auto remote_b = Source<Key>::OpenRemote(b.spec());
  ASSERT_TRUE(remote_a.ok()) << remote_a.status().ToString();
  ASSERT_TRUE(remote_b.ok()) << remote_b.status().ToString();
  EXPECT_EQ(remote_a->size(), 15000u);
  EXPECT_EQ(remote_a->stripes(), 1u);

  OpaqConfig config;
  config.run_size = 2000;
  config.samples_per_run = 100;
  config.io_mode = IoMode::kAsync;

  auto remote_session =
      Engine<Key>(config, {*remote_a, *remote_b}).Build();
  ASSERT_TRUE(remote_session.ok()) << remote_session.status().ToString();
  auto local_session =
      Engine<Key>(config, {Source<Key>::FromFile(a.file.get()),
                           Source<Key>::FromFile(b.file.get())})
          .Build();
  ASSERT_TRUE(local_session.ok());

  auto query = [](QuerySession<Key>& session) {
    auto batch = session.Query({
        QueryRequest<Key>::EquiQuantiles(10),
        QueryRequest<Key>::Quantile(0.5, /*exact=*/true),
    });
    OPAQ_CHECK_OK(batch.status());
    return std::move(batch).value();
  };
  auto remote_answers = query(*remote_session);
  auto local_answers = query(*local_session);

  ASSERT_EQ(remote_answers.results[0].estimates.size(),
            local_answers.results[0].estimates.size());
  for (size_t i = 0; i < local_answers.results[0].estimates.size(); ++i) {
    EXPECT_EQ(remote_answers.results[0].estimates[i].lower,
              local_answers.results[0].estimates[i].lower);
    EXPECT_EQ(remote_answers.results[0].estimates[i].upper,
              local_answers.results[0].estimates[i].upper);
  }
  EXPECT_EQ(remote_answers.results[1].exact, local_answers.results[1].exact);
  EXPECT_EQ(remote_answers.total_elements, 15000u + 23000u);
}

TEST(RemoteSourceFacadeTest, EmptyAndExhaustedRanges) {
  NodeFixture node(100);
  auto provider = RemoteRunProvider<Key>::Connect(node.spec());
  ASSERT_TRUE(provider.ok());
  ReadOptions options;
  options.run_size = 64;
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    options.io_mode = mode;
    auto source = provider->OpenRuns(options, 100, 50);
    std::vector<Key> buffer{42};
    auto more = source->NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    EXPECT_FALSE(*more);
    EXPECT_TRUE(buffer.empty());
  }
}

}  // namespace
}  // namespace opaq
