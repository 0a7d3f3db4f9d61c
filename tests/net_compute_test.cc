// The compute path end to end: node-side sampling and §4 exact scans
// answering byte-identically to the local pipeline over the same data, a
// node that cannot compute surfacing its error instead of a silent switch
// to streaming, hostile/corrupt compute payloads surfacing as Status (never
// aborts), node death mid-RPC, and the whole point of the compute ops: an
// Engine with node compute moving an order of magnitude fewer bytes than
// one streaming ranges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/exact.h"
#include "core/opaq.h"
#include "data/dataset.h"
#include "io/block_device.h"
#include "io/data_file.h"
#include "io/striped_data_file.h"
#include "io/striped_run_source.h"
#include "net/client.h"
#include "net/node_server.h"
#include "net/remote_compute.h"
#include "net/wire_compute.h"
#include "opaq/engine.h"
#include "opaq/query.h"
#include "opaq/source.h"

namespace opaq {
namespace {

using Key = uint64_t;

std::vector<Key> ZipfKeys(uint64_t n) {
  DatasetSpec spec;
  spec.n = n;
  spec.seed = 91;
  spec.distribution = Distribution::kZipf;
  return GenerateDataset<Key>(spec);
}

/// One loopback compute node: typed plain export "data" (plus a striped
/// export "striped" when `stripes` > 1).
struct ComputeNode {
  std::vector<Key> data;
  std::vector<std::unique_ptr<MemoryBlockDevice>> devices;
  std::unique_ptr<TypedDataFile<Key>> file;
  std::unique_ptr<StripedDataFile<Key>> striped;
  NodeServer server;

  explicit ComputeNode(uint64_t n, NodeServerOptions options = {},
                       int stripes = 1)
      : ComputeNode(ZipfKeys(n), options, stripes) {}

  explicit ComputeNode(std::vector<Key> keys, NodeServerOptions options = {},
                       int stripes = 1)
      : data(std::move(keys)), server(options) {
    devices.push_back(std::make_unique<MemoryBlockDevice>());
    OPAQ_CHECK_OK(WriteDataset(data, devices.back().get()));
    auto opened = TypedDataFile<Key>::Open(devices.back().get());
    OPAQ_CHECK_OK(opened.status());
    file = std::make_unique<TypedDataFile<Key>>(std::move(opened).value());
    server.Export("data", file.get());
    if (stripes > 1) {
      std::vector<BlockDevice*> raw_devices;
      for (int s = 0; s < stripes; ++s) {
        devices.push_back(std::make_unique<MemoryBlockDevice>());
        raw_devices.push_back(devices.back().get());
      }
      auto written = WriteStriped(data, std::move(raw_devices), 333);
      OPAQ_CHECK_OK(written.status());
      striped = std::make_unique<StripedDataFile<Key>>(
          std::move(written).value());
      server.Export("striped", striped.get());
    }
    OPAQ_CHECK_OK(server.Start());
  }

  RemoteSpec spec(const std::string& name = "data") const {
    auto parsed = ParseRemoteSpec(server.address() + "/" + name);
    OPAQ_CHECK_OK(parsed.status());
    return std::move(parsed).value();
  }
};

OpaqConfig SmallConfig(IoMode io_mode = IoMode::kSync) {
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 50;
  config.seed = 7;
  config.io_mode = io_mode;
  config.prefetch_depth = 2;
  return config;
}

SampleList<Key> LocalList(const RunProvider<Key>& provider,
                          const OpaqConfig& config) {
  OpaqSketch<Key> sketch(config);
  OPAQ_CHECK_OK(sketch.Consume(provider));
  return sketch.FinalizeSampleList();
}

void ExpectListsEqual(const SampleList<Key>& got, const SampleList<Key>& want,
                      const std::string& what) {
  EXPECT_EQ(got.samples(), want.samples()) << what;
  EXPECT_EQ(got.accounting().subrun_size, want.accounting().subrun_size)
      << what;
  EXPECT_EQ(got.accounting().num_runs, want.accounting().num_runs) << what;
  EXPECT_EQ(got.accounting().num_samples, want.accounting().num_samples)
      << what;
  EXPECT_EQ(got.accounting().num_uncovered, want.accounting().num_uncovered)
      << what;
  EXPECT_EQ(got.accounting().total_elements,
            want.accounting().total_elements)
      << what;
}

// ------------------------------------- node-side sampling conformance ----

TEST(NodeSampleRunsTest, MatchesLocalSketchAcrossBackendsAndModes) {
  ComputeNode node(10007, NodeServerOptions(), /*stripes=*/3);  // ragged tail
  FileRunProvider<Key> local_provider(node.file.get());
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    const OpaqConfig config = SmallConfig(mode);
    SampleList<Key> reference = LocalList(local_provider, config);
    for (const char* name : {"data", "striped"}) {
      RemoteComputeClient<Key> compute(node.spec(name), NodeClientOptions());
      auto remote = compute.SampleRuns(config);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      ExpectListsEqual(*remote, reference,
                       std::string(name) + " " + IoModeName(mode));
    }
  }
}

TEST(NodeExactPassTest, MatchesLocalScan) {
  ComputeNode node(20000);
  FileRunProvider<Key> local_provider(node.file.get());
  const OpaqConfig config = SmallConfig();
  OpaqSketch<Key> sketch(config);
  ASSERT_TRUE(sketch.Consume(local_provider).ok());
  auto estimates = sketch.Finalize().EquiQuantiles(8);

  ReadOptions options = config.read_options();
  const uint64_t budget = 1u << 20;
  internal_exact::BracketAccumulator<Key> local_acc(estimates.size());
  ASSERT_TRUE(internal_exact::AccumulateBrackets(local_provider, estimates,
                                                 options, budget, &local_acc)
                  .ok());

  RemoteComputeClient<Key> compute(node.spec(), NodeClientOptions());
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    ReadOptions remote_options = options;
    remote_options.io_mode = mode;
    auto scan = compute.ExactPass(estimates, remote_options, budget);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->below, local_acc.below) << IoModeName(mode);
    EXPECT_EQ(scan->kept, local_acc.kept) << IoModeName(mode);
  }
}

TEST(NodeExactPassTest, NodeSideBudgetIsEnforced) {
  ComputeNode node(20000);
  FileRunProvider<Key> local_provider(node.file.get());
  const OpaqConfig config = SmallConfig();
  OpaqSketch<Key> sketch(config);
  ASSERT_TRUE(sketch.Consume(local_provider).ok());
  auto estimates = sketch.Finalize().EquiQuantiles(8);
  RemoteComputeClient<Key> compute(node.spec(), NodeClientOptions());
  auto scan = compute.ExactPass(estimates, config.read_options(),
                                /*memory_budget=*/1);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kResourceExhausted);
}

TEST(NodeExactPassTest, NestedBracketsCannotOutgrowTheNodeBudget) {
  // 1000 nested brackets above every key keep nothing, but their cover
  // table would hold about two million entries: the node refuses them
  // under a 100K budget before it scans or allocates the table.
  ComputeNode node(20000);
  const Key top = *std::max_element(node.data.begin(), node.data.end());
  ASSERT_LT(top, UINT64_MAX - 5000);
  std::vector<QuantileEstimate<Key>> nested(1000);
  for (uint64_t k = 0; k < nested.size(); ++k) {
    nested[k].lower = top + 1 + k;
    nested[k].upper = top + 2001 - k;
  }
  RemoteComputeClient<Key> compute(node.spec(), NodeClientOptions());
  auto scan = compute.ExactPass(nested, SmallConfig().read_options(),
                                /*memory_budget=*/100000);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kResourceExhausted);
}

// ------------------------------------------------ no silent downgrade ----

TEST(ComputeErrorTest, NodeThatCannotComputeFailsTheBuildAndTheExactPass) {
  // A node whose exports lack compute hooks answers SAMPLE_RUNS /
  // EXACT_PASS with Unimplemented. The client asked for node compute, so
  // that is the answer: the engine and the exact pass return it instead of
  // quietly streaming O(n) bytes in its place.
  auto provider =
      std::make_shared<const MemoryRunProvider<Key>>(ZipfKeys(12000));
  NodeServer server;
  // "bare": range reads only, no compute hooks at all.
  ExportedDataset bare;
  bare.key_type = static_cast<uint32_t>(KeyTraits<Key>::kType);
  bare.element_size = sizeof(Key);
  bare.element_count = provider->size();
  bare.read = [provider](uint64_t first, uint64_t count, void* out) {
    return provider->Read(first, count, static_cast<Key*>(out));
  };
  server.Export("bare", bare);
  // "no_exact": samples node-side but has no exact-pass hook.
  ExportedDataset no_exact =
      ProviderExport<Key>([provider] { return provider; });
  no_exact.exact_pass = nullptr;
  server.Export("no_exact", std::move(no_exact));
  ASSERT_TRUE(server.Start().ok());

  const OpaqConfig config = SmallConfig(IoMode::kAsync);
  auto bare_source = Source<Key>::OpenRemote(server.address() + "/bare");
  ASSERT_TRUE(bare_source.ok()) << bare_source.status().ToString();
  ASSERT_NE(bare_source->remote_compute(), nullptr);
  auto build = Engine<Key>(config, *bare_source).Build();
  ASSERT_FALSE(build.ok());
  EXPECT_EQ(build.status().code(), StatusCode::kUnimplemented)
      << build.status().ToString();

  auto no_exact_source =
      Source<Key>::OpenRemote(server.address() + "/no_exact");
  ASSERT_TRUE(no_exact_source.ok()) << no_exact_source.status().ToString();
  auto session = Engine<Key>(config, *no_exact_source).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ExpectListsEqual(session->sample_list(),
                   LocalList(*provider, config),
                   "node-side sample list");
  auto exact =
      session->Query({QueryRequest<Key>::Quantile(0.5, /*exact=*/true)});
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kUnimplemented)
      << exact.status().ToString();
  // The estimate needs no pass over the data, so it still answers.
  EXPECT_TRUE(session->Query({QueryRequest<Key>::Quantile(0.5)}).ok());
}

// --------------------------------------- distributed engine + savings ----

uint64_t SamplePhaseBytes(ComputeNode& a, ComputeNode& b,
                          const NodeClientOptions& client_options,
                          const OpaqConfig& config,
                          const QuerySession<Key>* reference) {
  const uint64_t before = a.server.bytes_sent() + b.server.bytes_sent();
  auto source_a = Source<Key>::OpenRemote(a.spec().ToString(),
                                          client_options);
  auto source_b = Source<Key>::OpenRemote(b.spec().ToString(),
                                          client_options);
  OPAQ_CHECK_OK(source_a.status());
  OPAQ_CHECK_OK(source_b.status());
  auto session = Engine<Key>(config, {*source_a, *source_b}).Build();
  OPAQ_CHECK_OK(session.status());
  if (reference != nullptr) {
    EXPECT_EQ(session->sample_list().samples(),
              reference->sample_list().samples());
  }
  return a.server.bytes_sent() + b.server.bytes_sent() - before;
}

TEST(EngineComputeTest, DistributedAnswersMatchLocalAndSaveWireBytes) {
  ComputeNode a(60000), b(44000);
  OpaqConfig config;
  config.run_size = 4000;
  config.samples_per_run = 100;
  config.io_mode = IoMode::kAsync;

  // Reference: a single-process Engine over the same shards in order.
  auto local_session =
      Engine<Key>(config, {Source<Key>::FromFile(a.file.get()),
                           Source<Key>::FromFile(b.file.get())})
          .Build();
  ASSERT_TRUE(local_session.ok());

  // v2 (default) and forced-v1 engines leave identical sample lists...
  NodeClientOptions v1_client;
  v1_client.node_compute = false;
  const uint64_t v2_bytes =
      SamplePhaseBytes(a, b, NodeClientOptions(), config, &*local_session);
  const uint64_t v1_bytes =
      SamplePhaseBytes(a, b, v1_client, config, &*local_session);

  // ...but v2 ships O(s) sample bytes instead of O(n) raw elements: with
  // 104k elements vs ~2.6k samples the win must clear 10x easily.
  EXPECT_GE(v1_bytes, 10 * v2_bytes)
      << "v1=" << v1_bytes << " bytes, v2=" << v2_bytes << " bytes";

  // And the full query path (distributed exact pass included) agrees with
  // the local run bracket for bracket, value for value.
  auto remote_a = Source<Key>::OpenRemote(a.spec().ToString());
  auto remote_b = Source<Key>::OpenRemote(b.spec().ToString());
  ASSERT_TRUE(remote_a.ok());
  ASSERT_TRUE(remote_b.ok());
  ASSERT_NE(remote_a->remote_compute(), nullptr);
  auto remote_session = Engine<Key>(config, {*remote_a, *remote_b}).Build();
  ASSERT_TRUE(remote_session.ok());
  auto query = [](QuerySession<Key>& session) {
    auto batch = session.Query({
        QueryRequest<Key>::EquiQuantiles(10),
        QueryRequest<Key>::Quantile(0.1, /*exact=*/true),
        QueryRequest<Key>::Quantile(0.9, /*exact=*/true),
    });
    OPAQ_CHECK_OK(batch.status());
    return std::move(batch).value();
  };
  auto remote_batch = query(*remote_session);
  auto local_batch = query(*local_session);
  ASSERT_EQ(remote_batch.results[0].estimates.size(),
            local_batch.results[0].estimates.size());
  for (size_t i = 0; i < local_batch.results[0].estimates.size(); ++i) {
    EXPECT_EQ(remote_batch.results[0].estimates[i].lower,
              local_batch.results[0].estimates[i].lower);
    EXPECT_EQ(remote_batch.results[0].estimates[i].upper,
              local_batch.results[0].estimates[i].upper);
  }
  EXPECT_EQ(remote_batch.results[1].exact, local_batch.results[1].exact);
  EXPECT_EQ(remote_batch.results[2].exact, local_batch.results[2].exact);
}

TEST(EngineComputeTest, ExactBudgetBoundsTheTotalAcrossNodeComputedShards) {
  // Two duplicate-heavy shards, each scanned NODE-SIDE: a budget that
  // either node's kept set fits alone, but not both together, must fail
  // when the coordinator folds the node scans.
  std::vector<Key> data(10000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i % 10;
  const std::vector<Key> a(data.begin(), data.begin() + 4000);
  const std::vector<Key> b(data.begin() + 4000, data.end());
  ComputeNode node_a(a), node_b(b);
  auto source_a = Source<Key>::OpenRemote(node_a.spec().ToString());
  auto source_b = Source<Key>::OpenRemote(node_b.spec().ToString());
  ASSERT_TRUE(source_a.ok()) << source_a.status().ToString();
  ASSERT_TRUE(source_b.ok()) << source_b.status().ToString();
  ASSERT_NE(source_a->remote_compute(), nullptr);
  ASSERT_NE(source_b->remote_compute(), nullptr);
  auto session = Engine<Key>(SmallConfig(), {*source_a, *source_b}).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto estimate = session->Query({QueryRequest<Key>::Quantile(0.5)});
  ASSERT_TRUE(estimate.ok());
  const QuantileEstimate<Key>& bracket = estimate->results[0].estimates[0];
  auto kept_by = [&](const std::vector<Key>& shard) {
    return static_cast<uint64_t>(
        std::count_if(shard.begin(), shard.end(), [&](Key v) {
          return !(v < bracket.lower) && !(bracket.upper < v);
        }));
  };
  const uint64_t budget = std::max(kept_by(a), kept_by(b));
  session->set_exact_memory_budget(budget);
  auto sent = [&] {
    return node_a.server.bytes_sent() + node_b.server.bytes_sent();
  };
  const uint64_t sent_before = sent();
  auto starved = session->ExactQuantile(0.5);
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
  // Together the nodes shipped no more kept elements than the budget (plus
  // frame headers, below-counts and refusals); each fits it alone, so
  // shipping both kept sets would have sent kept_by(a) + kept_by(b).
  EXPECT_LE(sent() - sent_before, budget * sizeof(Key) + 1024)
      << "kept: " << kept_by(a) << " + " << kept_by(b);
  session->set_exact_memory_budget(kept_by(a) + kept_by(b));
  auto fed = session->ExactQuantile(0.5);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  std::vector<Key> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(*fed, sorted[data.size() / 2 - 1]);
}

TEST(EngineComputeTest, SkewedNodeRefusesItsShareAndIsAskedAgain) {
  // Node A holds a tenth of the elements but the whole median band; node B
  // holds the rest, spread out. With a budget that fits both kept sets
  // exactly, A's grant (its tenth of the budget) is too small: A refuses
  // once and is asked again with what B left, B is asked once, and the
  // answer is exact.
  const std::vector<Key> a(1000, 5000);
  std::vector<Key> b(9000);
  for (size_t i = 0; i < b.size(); ++i) b[i] = i * 10000 / 9000;
  ComputeNode node_a(a), node_b(b);
  auto source_a = Source<Key>::OpenRemote(node_a.spec().ToString());
  auto source_b = Source<Key>::OpenRemote(node_b.spec().ToString());
  ASSERT_TRUE(source_a.ok()) << source_a.status().ToString();
  ASSERT_TRUE(source_b.ok()) << source_b.status().ToString();
  auto session = Engine<Key>(SmallConfig(), {*source_a, *source_b}).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto estimate = session->Query({QueryRequest<Key>::Quantile(0.5)});
  ASSERT_TRUE(estimate.ok());
  const QuantileEstimate<Key>& bracket = estimate->results[0].estimates[0];
  auto kept_by = [&](const std::vector<Key>& shard) {
    return static_cast<uint64_t>(
        std::count_if(shard.begin(), shard.end(), [&](Key v) {
          return !(v < bracket.lower) && !(bracket.upper < v);
        }));
  };
  ASSERT_EQ(kept_by(a), a.size());
  session->set_exact_memory_budget(kept_by(a) + kept_by(b));
  const uint64_t served_a = node_a.server.requests_served();
  const uint64_t served_b = node_b.server.requests_served();
  auto exact = session->ExactQuantile(0.5);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  std::vector<Key> sorted = b;
  sorted.insert(sorted.end(), a.begin(), a.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(*exact, sorted[sorted.size() / 2 - 1]);
  const uint64_t asked_b = node_b.server.requests_served() - served_b;
  EXPECT_GE(asked_b, 1u);
  EXPECT_EQ(node_a.server.requests_served() - served_a, 2 * asked_b);

  // Once B is gone the query fails whatever A answers, so A's refusal is
  // not followed by a second scan.
  node_b.server.Stop();
  const uint64_t before = node_a.server.requests_served();
  auto failed = session->ExactQuantile(0.5);
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(node_a.server.requests_served() - before, asked_b);
}

// ------------------------------------------------ hostile peers/faults ----

/// A fake node that runs one script per accepted connection, in order —
/// enough to scriptedly survive OpenRemote's handshake + extent probe and
/// then misbehave on the compute RPC itself.
class ScriptedNode {
 public:
  explicit ScriptedNode(std::function<void(TcpConnection&)> script)
      : ScriptedNode(std::vector<std::function<void(TcpConnection&)>>{
            std::move(script)}) {}

  explicit ScriptedNode(
      std::vector<std::function<void(TcpConnection&)>> scripts) {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    OPAQ_CHECK_OK(listener.status());
    listener_ = std::move(listener).value();
    thread_ = std::thread([this, scripts = std::move(scripts)] {
      for (const auto& script : scripts) {
        auto conn = listener_.Accept();
        if (!conn.ok()) return;
        script(*conn);
      }
    });
  }

  ~ScriptedNode() {
    listener_.ShutdownNow();
    if (thread_.joinable()) thread_.join();
  }

  RemoteSpec spec() const {
    RemoteSpec s;
    s.host = "127.0.0.1";
    s.port = listener_.port();
    s.dataset = "data";
    return s;
  }

 private:
  TcpListener listener_;
  std::thread thread_;
};

void ConsumeFrame(TcpConnection& conn) {
  WireFrameHeader header;
  OPAQ_CHECK_OK(conn.ReadFull(&header, sizeof(header)));
  std::vector<uint8_t> payload(header.payload_len);
  if (!payload.empty()) {
    OPAQ_CHECK_OK(conn.ReadFull(payload.data(), payload.size()));
  }
}

TEST(ComputeFaultTest, NodeDeathMidSampleRunsSurfaces) {
  // The node dies after consuming the request — mid-"computation", before
  // any response byte. The client must see an IoError, never hang.
  ScriptedNode fake([](TcpConnection& conn) {
    ConsumeFrame(conn);  // the SAMPLE_RUNS request
    WireFrameHeader header;
    header.op = static_cast<uint16_t>(WireOp::kSampleListData);
    conn.WriteFull(&header, sizeof(header) / 2);  // half a header, then EOF
  });
  RemoteComputeClient<Key> compute(fake.spec(), NodeClientOptions());
  auto list = compute.SampleRuns(SmallConfig());
  ASSERT_FALSE(list.ok());
  EXPECT_EQ(list.status().code(), StatusCode::kIoError);
}

std::vector<uint8_t> SampleListPayload(const WireSampleListHeader& header,
                                       const std::vector<Key>& samples) {
  std::vector<uint8_t> payload(sizeof(header) +
                               samples.size() * sizeof(Key));
  std::memcpy(payload.data(), &header, sizeof(header));
  if (!samples.empty()) {
    std::memcpy(payload.data() + sizeof(header), samples.data(),
                samples.size() * sizeof(Key));
  }
  return payload;
}

Status SampleRunsAgainst(std::function<void(TcpConnection&)> script) {
  ScriptedNode fake(std::move(script));
  RemoteComputeClient<Key> compute(fake.spec(), NodeClientOptions());
  return compute.SampleRuns(SmallConfig()).status();
}

TEST(ComputeFaultTest, CorruptSampleListPayloadsSurfaceAsStatus) {
  // Every invariant the SampleList constructor CHECKs must be caught by
  // the decoder first: a hostile node yields a Status, not an abort.
  auto reply = [](const std::vector<uint8_t>& payload) {
    return [payload](TcpConnection& conn) {
      ConsumeFrame(conn);
      std::vector<uint8_t> frame =
          EncodeFrame(WireOp::kSampleListData, payload);
      conn.WriteFull(frame.data(), frame.size());
    };
  };

  // Unsorted samples.
  WireSampleListHeader header;
  header.subrun_size = 20;
  header.num_runs = 1;
  header.num_samples = 3;
  header.total_elements = 60;
  Status unsorted =
      SampleRunsAgainst(reply(SampleListPayload(header, {9, 4, 7})));
  ASSERT_FALSE(unsorted.ok());
  EXPECT_EQ(unsorted.code(), StatusCode::kIoError);
  EXPECT_NE(unsorted.message().find("sorted"), std::string::npos);

  // Sample count disagreeing with the payload length.
  header.num_samples = 5;
  Status short_count =
      SampleRunsAgainst(reply(SampleListPayload(header, {1, 2, 3})));
  ASSERT_FALSE(short_count.ok());
  EXPECT_EQ(short_count.code(), StatusCode::kIoError);

  // Inconsistent accounting (samples without any covering run).
  header.num_samples = 3;
  header.num_runs = 0;
  header.total_elements = 0;
  Status bad_accounting =
      SampleRunsAgainst(reply(SampleListPayload(header, {1, 2, 3})));
  ASSERT_FALSE(bad_accounting.ok());
  EXPECT_EQ(bad_accounting.code(), StatusCode::kIoError);

  // A payload shorter than its own header.
  Status truncated = SampleRunsAgainst(reply(std::vector<uint8_t>(8, 0)));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.code(), StatusCode::kIoError);
}

TEST(ComputeFaultTest, CorruptExactScanPayloadsSurfaceAsStatus) {
  std::vector<QuantileEstimate<Key>> estimates(2);
  estimates[0].lower = 10;
  estimates[0].upper = 20;
  estimates[1].lower = 30;
  estimates[1].upper = 40;
  auto exact_against = [&](std::vector<uint8_t> payload) {
    ScriptedNode fake([payload](TcpConnection& conn) {
      ConsumeFrame(conn);
      std::vector<uint8_t> frame =
          EncodeFrame(WireOp::kExactPassData, payload);
      conn.WriteFull(frame.data(), frame.size());
    });
    RemoteComputeClient<Key> compute(fake.spec(), NodeClientOptions());
    return compute.ExactPass(estimates, ReadOptions(), 1000).status();
  };

  // Wrong bracket count.
  WireExactPassHeader header;
  header.num_brackets = 1;
  header.kept_total = 0;
  std::vector<uint8_t> wrong_brackets(sizeof(header) + 2 * sizeof(uint64_t));
  std::memcpy(wrong_brackets.data(), &header, sizeof(header));
  Status mismatch = exact_against(wrong_brackets);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), StatusCode::kIoError);

  // Kept counts that do not sum to the header's total.
  header.num_brackets = 2;
  header.kept_total = 3;
  const uint64_t below[2] = {1, 2};
  const uint64_t kept_counts[2] = {1, 1};  // sums to 2, header says 3
  const Key kept[3] = {5, 6, 7};
  std::vector<uint8_t> bad_sum(sizeof(header) + sizeof(below) +
                               sizeof(kept_counts) + sizeof(kept));
  uint8_t* out = bad_sum.data();
  std::memcpy(out, &header, sizeof(header));
  out += sizeof(header);
  std::memcpy(out, below, sizeof(below));
  out += sizeof(below);
  std::memcpy(out, kept_counts, sizeof(kept_counts));
  out += sizeof(kept_counts);
  std::memcpy(out, kept, sizeof(kept));
  Status sum = exact_against(bad_sum);
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.code(), StatusCode::kIoError);
  EXPECT_NE(sum.message().find("sum"), std::string::npos);
}

TEST(ComputeFaultTest, NodeValidatesComputeRequests) {
  // Malformed compute requests answer with a per-request error frame; the
  // connection survives and keeps serving.
  ComputeNode node(5000);
  auto client = NodeClient::Connect(node.spec().host, node.spec().port);
  ASSERT_TRUE(client.ok());

  // Unknown select-algorithm tag.
  WireSampleRunsRequest request;
  request.run_size = 1000;
  request.samples_per_run = 50;
  request.select_algorithm = 99;
  const std::string name = "data";
  std::vector<uint8_t> payload = EncodeSampleRunsPayload(request, name);
  ASSERT_TRUE(client
                  ->SendRequest(WireOp::kSampleRuns, payload.data(),
                                payload.size())
                  .ok());
  auto answer = client->ReceiveResponse(WireOp::kSampleListData);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client->Ping().ok()) << "connection should survive";

  // A run size that would blow the node's compute memory bound.
  request.select_algorithm = 0;
  request.run_size = UINT64_MAX / sizeof(Key);
  payload = EncodeSampleRunsPayload(request, name);
  ASSERT_TRUE(client
                  ->SendRequest(WireOp::kSampleRuns, payload.data(),
                                payload.size())
                  .ok());
  answer = client->ReceiveResponse(WireOp::kSampleListData);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(client->Ping().ok());

  // An exact pass whose brackets are inverted (upper < lower).
  WireExactPassRequest exact;
  exact.memory_budget = 1000;
  exact.run_size = 1000;
  std::vector<QuantileEstimate<Key>> inverted(1);
  inverted[0].lower = 50;
  inverted[0].upper = 10;
  payload = EncodeExactPassPayload(exact, inverted, name);
  ASSERT_TRUE(client
                  ->SendRequest(WireOp::kExactPass, payload.data(),
                                payload.size())
                  .ok());
  answer = client->ReceiveResponse(WireOp::kExactPassData);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client->Ping().ok());

  // An exact pass whose bracket region disagrees with num_brackets.
  std::vector<QuantileEstimate<Key>> brackets(1);
  brackets[0].lower = 10;
  brackets[0].upper = 50;
  payload = EncodeExactPassPayload(exact, brackets, name);
  payload.resize(payload.size() - sizeof(Key));  // truncate the region
  ASSERT_TRUE(client
                  ->SendRequest(WireOp::kExactPass, payload.data(),
                                payload.size())
                  .ok());
  answer = client->ReceiveResponse(WireOp::kExactPassData);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client->Ping().ok());

  // Unknown dataset: NotFound, connection survives.
  payload = EncodeSampleRunsPayload(WireSampleRunsRequest(), "nope");
  ASSERT_TRUE(client
                  ->SendRequest(WireOp::kSampleRuns, payload.data(),
                                payload.size())
                  .ok());
  answer = client->ReceiveResponse(WireOp::kSampleListData);
  EXPECT_EQ(answer.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client->Ping().ok());
}

TEST(ComputeFaultTest, EngineSurfacesNodeDeathMidSampleRuns) {
  // A scripted node that passes OpenRemote's handshake and extent probe,
  // both on one connection, then dies after consuming the SAMPLE_RUNS
  // request: the engine must report the failure, not retry it as range
  // streaming.
  auto handshake = [](TcpConnection& conn) {
    ConsumeFrame(conn);  // OPEN_DATASET
    WireDatasetInfo info;
    info.key_type = static_cast<uint32_t>(KeyTraits<Key>::kType);
    info.element_size = sizeof(Key);
    info.element_count = 4000;
    info.max_read_elements = 4096;
    std::vector<uint8_t> frame =
        EncodeFrame(WireOp::kDatasetInfo, &info, sizeof(info));
    conn.WriteFull(frame.data(), frame.size());
  };
  auto no_extents = [](TcpConnection& conn) {
    ConsumeFrame(conn);  // OPEN_EXTENTS: the dataset is stored plain
    std::vector<uint8_t> frame =
        EncodeErrorFrame(Status::Unimplemented("not stored as extents"));
    conn.WriteFull(frame.data(), frame.size());
  };
  auto open = [&](TcpConnection& conn) {
    handshake(conn);
    no_extents(conn);
  };
  auto die_mid_compute = [](TcpConnection& conn) {
    ConsumeFrame(conn);  // SAMPLE_RUNS — then hang up without answering
  };
  ScriptedNode fake(std::vector<std::function<void(TcpConnection&)>>{
      open, die_mid_compute});

  auto source = Source<Key>::OpenRemote(fake.spec().ToString());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_NE(source->remote_compute(), nullptr);
  auto session = Engine<Key>(SmallConfig(), *source).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace opaq
