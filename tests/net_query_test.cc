// Query-serving path tests: hostile-byte rejection in the
// query codecs, end-to-end QueryServer/QueryClient round trips asserted
// byte-identical to a single-process QuerySession, the error policy
// (recoverable errors keep the connection; framing lies close it), exact
// coalescing (N concurrent exact batches -> ONE shared §4 pass), epoch
// refresh with atomic swap, the daemons' SIGTERM handling (fork/exec the
// real opaq_queryd / opaq_noded binaries, signal them mid-serve, and assert
// a clean exit 0 with the final counter report), and the daemons' dataset
// opening across every layout and key type, hostile files included.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sketch_io.h"
#include "data/dataset.h"
#include "ingest/live_dataset.h"
#include "io/block_device.h"
#include "io/extent.h"
#include "io/striped_data_file.h"
#include "io/tempdir.h"
#include "net/client.h"
#include "net/query_client.h"
#include "net/query_server.h"
#include "net/wire_compute.h"
#include "net/wire_query.h"
#include "opaq/engine.h"
#include "opaq/source.h"

namespace opaq {
namespace {

using Key = uint64_t;
using Request = QueryRequest<Key>;

std::vector<Key> TestData(uint64_t n, uint64_t seed = 7) {
  DatasetSpec spec;
  spec.n = n;
  spec.seed = seed;
  spec.distribution = Distribution::kZipf;
  return GenerateDataset<Key>(spec);
}

OpaqConfig SmallConfig() {
  OpaqConfig config;
  config.run_size = 4096;
  config.samples_per_run = 64;
  return config;
}

/// Builder over a shared (mutable between epochs) dataset: what the
/// refresh tests swap underneath the server.
std::function<Result<QuerySession<Key>>()> MakeBuilder(
    std::shared_ptr<const std::vector<Key>> data,
    OpaqConfig config = SmallConfig()) {
  return [data, config]() -> Result<QuerySession<Key>> {
    Source<Key> source = Source<Key>::FromVector(*data);
    Engine<Key> engine(config, source);
    return engine.Build();
  };
}

// ------------------------------------------------------ codec hostility ----

TEST(WireQueryCodecTest, QueryNameRejectsHostileBytes) {
  // Shorter than the fixed prefix: framing lie -> IoError.
  uint8_t tiny[4] = {1, 2, 3, 4};
  auto short_prefix = DecodeQueryName(tiny, sizeof(tiny));
  EXPECT_EQ(short_prefix.status().code(), StatusCode::kIoError);

  // name_len pointing past the payload end.
  WireQueryHeader header;
  header.name_len = 1000;
  header.num_requests = 1;
  std::vector<uint8_t> overrun(sizeof(header) + 4);
  std::memcpy(overrun.data(), &header, sizeof(header));
  auto past_end = DecodeQueryName(overrun.data(), overrun.size());
  EXPECT_EQ(past_end.status().code(), StatusCode::kIoError);

  // Zero requests: well-framed but meaningless -> InvalidArgument.
  header.name_len = 0;
  header.num_requests = 0;
  std::vector<uint8_t> empty(sizeof(header));
  std::memcpy(empty.data(), &header, sizeof(header));
  auto zero = DecodeQueryName(empty.data(), empty.size());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);

  // Request count over the protocol cap.
  header.num_requests = kMaxWireQueryRequests + 1;
  std::memcpy(empty.data(), &header, sizeof(header));
  auto over = DecodeQueryName(empty.data(), empty.size());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.status().message().find("cap"), std::string::npos);
}

TEST(WireQueryCodecTest, QueryRequestsRejectHostileBytes) {
  const std::string name = "s";
  std::vector<Request> batch = {Request::Quantile(0.5)};
  std::vector<uint8_t> payload =
      EncodeQueryPayload<Key>(name, {batch.data(), batch.size()});
  auto named = DecodeQueryName(payload.data(), payload.size());
  ASSERT_TRUE(named.ok());

  // Truncated / padded payloads: the length must match the header exactly.
  auto shorter = DecodeQueryRequests<Key>(payload.data(), payload.size() - 1,
                                          named->first);
  EXPECT_EQ(shorter.status().code(), StatusCode::kIoError);
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  auto longer =
      DecodeQueryRequests<Key>(padded.data(), padded.size(), named->first);
  EXPECT_EQ(longer.status().code(), StatusCode::kIoError);

  // A wrong-sized element type (u32 client against a u64 session) is the
  // same exact-length violation, caught before any field is trusted.
  auto wrong_type = DecodeQueryRequests<uint32_t>(
      payload.data(), payload.size(), named->first);
  EXPECT_EQ(wrong_type.status().code(), StatusCode::kIoError);

  // Unknown kind.
  std::vector<uint8_t> bad_kind = payload;
  WireQueryRequest record;
  std::memcpy(&record, bad_kind.data() + sizeof(WireQueryHeader) + 1,
              sizeof(record));
  record.kind = 99;
  std::memcpy(bad_kind.data() + sizeof(WireQueryHeader) + 1, &record,
              sizeof(record));
  auto kind = DecodeQueryRequests<Key>(bad_kind.data(), bad_kind.size(),
                                       named->first);
  EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kind.status().message().find("kind"), std::string::npos);

  // Unknown flag bits.
  std::memcpy(&record, payload.data() + sizeof(WireQueryHeader) + 1,
              sizeof(record));
  record.flags = 0x80;
  std::vector<uint8_t> bad_flags = payload;
  std::memcpy(bad_flags.data() + sizeof(WireQueryHeader) + 1, &record,
              sizeof(record));
  auto flags = DecodeQueryRequests<Key>(bad_flags.data(), bad_flags.size(),
                                        named->first);
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);

  // q over the equi-depth cap.
  std::memcpy(&record, payload.data() + sizeof(WireQueryHeader) + 1,
              sizeof(record));
  record.q = kMaxWireEquiDepth + 1;
  std::vector<uint8_t> bad_q = payload;
  std::memcpy(bad_q.data() + sizeof(WireQueryHeader) + 1, &record,
              sizeof(record));
  auto q = DecodeQueryRequests<Key>(bad_q.data(), bad_q.size(), named->first);
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireQueryCodecTest, QueryResultsRejectHostileBytes) {
  QueryResults<Key> results;
  results.total_elements = 100;
  results.max_rank_error = 3;
  QueryResult<Key> result;
  result.kind = Request::Kind::kQuantile;
  QuantileEstimate<Key> estimate;
  estimate.lower = 1;
  estimate.upper = 2;
  result.estimates = {estimate};
  result.exact = {5};
  results.results.push_back(result);
  auto payload = EncodeQueryResultsPayload(results);
  ASSERT_TRUE(payload.ok());

  // Round-trips clean first.
  auto ok = DecodeQueryResultsPayload<Key>(payload->data(), payload->size());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->results[0].exact, (std::vector<Key>{5}));

  // Truncations at every interesting boundary.
  for (size_t len : {size_t{0}, sizeof(WireQueryResultHeader) - 1,
                     sizeof(WireQueryResultHeader) + 4,
                     payload->size() - 1}) {
    auto cut = DecodeQueryResultsPayload<Key>(payload->data(), len);
    EXPECT_EQ(cut.status().code(), StatusCode::kIoError) << "len " << len;
  }

  // Allocation-bomb num_results: a count near 2^32 with a tiny payload
  // must be rejected by arithmetic BEFORE any reserve, not by bad_alloc.
  std::vector<uint8_t> bomb = *payload;
  WireQueryResultHeader bomb_header;
  std::memcpy(&bomb_header, bomb.data(), sizeof(bomb_header));
  bomb_header.num_results = 0xFFFFFFFFu;
  std::memcpy(bomb.data(), &bomb_header, sizeof(bomb_header));
  auto bombed = DecodeQueryResultsPayload<Key>(bomb.data(), bomb.size());
  EXPECT_EQ(bombed.status().code(), StatusCode::kIoError);
  EXPECT_NE(bombed.status().message().find("claims"), std::string::npos);

  // Trailing bytes past the last result.
  std::vector<uint8_t> padded = *payload;
  padded.push_back(0);
  auto trailing =
      DecodeQueryResultsPayload<Key>(padded.data(), padded.size());
  EXPECT_EQ(trailing.status().code(), StatusCode::kIoError);
  EXPECT_NE(trailing.status().message().find("trailing"), std::string::npos);

  // num_exact that matches neither 0 nor num_estimates.
  std::vector<uint8_t> bad_exact = *payload;
  WireQueryResultRecord record;
  std::memcpy(&record, bad_exact.data() + sizeof(WireQueryResultHeader),
              sizeof(record));
  record.num_exact = 2;
  std::memcpy(bad_exact.data() + sizeof(WireQueryResultHeader), &record,
              sizeof(record));
  auto mismatched =
      DecodeQueryResultsPayload<Key>(bad_exact.data(), bad_exact.size());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kIoError);

  // Unknown clamp-flag bits in an estimate.
  std::vector<uint8_t> bad_clamp = *payload;
  const size_t estimate_offset =
      sizeof(WireQueryResultHeader) + sizeof(WireQueryResultRecord);
  WireQuantileEstimate wire;
  std::memcpy(&wire, bad_clamp.data() + estimate_offset, sizeof(wire));
  wire.clamp_flags = 0xF0;
  std::memcpy(bad_clamp.data() + estimate_offset, &wire, sizeof(wire));
  auto clamp =
      DecodeQueryResultsPayload<Key>(bad_clamp.data(), bad_clamp.size());
  EXPECT_EQ(clamp.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------- server round trips ----

class QueryServerTest : public ::testing::Test {
 protected:
  void StartServer(QueryServerOptions options = QueryServerOptions()) {
    data_ = std::make_shared<const std::vector<Key>>(TestData(20000));
    server_ = std::make_unique<QueryServer>(options);
    OPAQ_CHECK_OK(server_->Serve<Key>("bench", MakeBuilder(data_)));
    OPAQ_CHECK_OK(server_->Start());
    auto local = MakeBuilder(data_)();
    OPAQ_CHECK_OK(local.status());
    local_ = std::make_unique<QuerySession<Key>>(std::move(local).value());
  }

  std::shared_ptr<const std::vector<Key>> data_;
  std::unique_ptr<QueryServer> server_;
  std::unique_ptr<QuerySession<Key>> local_;
};

TEST_F(QueryServerTest, StartWithoutSessionsRefuses) {
  QueryServer empty;
  Status status = empty.Start();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryServerTest, AllRequestKindsAnswerByteIdentically) {
  StartServer();
  auto client = QueryClient<Key>::Connect("127.0.0.1", server_->port(),
                                          "bench");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client->info().total_elements, local_->total_elements());
  EXPECT_EQ(client->info().max_rank_error, local_->max_rank_error());
  EXPECT_EQ(client->info().epoch, 1u);
  EXPECT_EQ(client->info().exact_enabled, 1u);

  const std::vector<std::vector<Request>> batches = {
      {Request::Quantile(0.5), Request::Quantile(0.999)},
      {Request::RankOf(0), Request::RankOf((*data_)[3]),
       Request::RankOf(UINT64_MAX)},
      {Request::QuantileByRank(1), Request::QuantileByRank(20000)},
      {Request::EquiQuantiles(10)},
      {Request::Quantile(0.5, /*exact=*/true),
       Request::EquiQuantiles(4, /*exact=*/true)},
      {Request::Quantile(0.25), Request::RankOf(42),
       Request::QuantileByRank(77), Request::EquiQuantiles(3)},
  };
  for (const std::vector<Request>& batch : batches) {
    auto remote = client->QueryPayload({batch.data(), batch.size()});
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto answers = local_->Query({batch.data(), batch.size()});
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    auto expected = EncodeQueryResultsPayload(*answers);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*remote, *expected)
        << "daemon bytes diverge from the local QuerySession";
  }
}

TEST_F(QueryServerTest, WrongKeyTypeFailsPrecondition) {
  StartServer();
  auto client = QueryClient<uint32_t>::Connect("127.0.0.1", server_->port(),
                                               "bench");
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(client.status().message().find("key type"), std::string::npos);
}

TEST_F(QueryServerTest, UnknownSessionIsNotFound) {
  StartServer();
  auto client = QueryClient<Key>::Connect("127.0.0.1", server_->port(),
                                          "nope");
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(server_->SessionInfo("nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryServerTest, RecoverableErrorsKeepTheConnectionOpen) {
  StartServer();
  auto raw = NodeClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());

  // Unknown session: error frame, connection stays useful.
  const std::string missing = "missing";
  OPAQ_CHECK_OK(raw->SendRequest(WireOp::kOpenSession, missing.data(),
                                 missing.size()));
  auto not_found = raw->ReceiveResponse(WireOp::kSessionInfo);
  EXPECT_EQ(not_found.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(raw->Ping().ok());

  // Semantically invalid request (phi out of range): InvalidArgument from
  // the session, connection still open.
  std::vector<Request> bad_phi = {Request::Quantile(2.0)};
  std::vector<uint8_t> payload =
      EncodeQueryPayload<Key>("bench", {bad_phi.data(), bad_phi.size()});
  OPAQ_CHECK_OK(
      raw->SendRequest(WireOp::kQuery, payload.data(), payload.size()));
  auto invalid = raw->ReceiveResponse(WireOp::kQueryResult);
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(raw->Ping().ok());

  // A framing lie (payload shorter than the fixed prefix) closes the
  // connection: the stream offset can no longer be trusted.
  uint8_t garbage[4] = {9, 9, 9, 9};
  OPAQ_CHECK_OK(raw->SendRequest(WireOp::kQuery, garbage, sizeof(garbage)));
  auto io_error = raw->ReceiveResponse(WireOp::kQueryResult);
  EXPECT_EQ(io_error.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(raw->Ping().ok());
}

TEST_F(QueryServerTest, ConcurrentExactBatchesShareOnePass) {
  QueryServerOptions options;
  options.exact_admission_delay_seconds = 0.1;
  StartServer(options);
  const std::vector<Request> batch = {
      Request::Quantile(0.5, /*exact=*/true),
      Request::QuantileByRank(10000, /*exact=*/true)};
  auto answers = local_->Query({batch.data(), batch.size()});
  ASSERT_TRUE(answers.ok());
  auto expected = EncodeQueryResultsPayload(*answers);
  ASSERT_TRUE(expected.ok());

  constexpr int kClients = 4;
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kClients; ++t) {
    workers.emplace_back([&]() {
      auto client = QueryClient<Key>::Connect("127.0.0.1", server_->port(),
                                              "bench");
      OPAQ_CHECK_OK(client.status());
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto payload = client->QueryPayload({batch.data(), batch.size()});
      OPAQ_CHECK_OK(payload.status());
      if (*payload != *expected) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "coalesced exact answers must be byte-identical to solo answers";
  // All four batches arrived inside the 100ms admission window, so the
  // leader folded them into ONE shared §4 pass.
  EXPECT_EQ(server_->exact_passes(), 1u);
}

TEST_F(QueryServerTest, RefreshSwapsEpochsAtomically) {
  // The builder re-reads *data_holder each epoch — exactly how opaq_queryd
  // re-opens its data files on a refresh interval.
  auto data_holder = std::make_shared<std::vector<Key>>(TestData(10000));
  auto shared = std::make_shared<std::shared_ptr<const std::vector<Key>>>(
      std::make_shared<const std::vector<Key>>(*data_holder));
  QueryServer server;
  OPAQ_CHECK_OK(server.Serve<Key>(
      "live", [shared]() -> Result<QuerySession<Key>> {
        Source<Key> source = Source<Key>::FromVector(**shared);
        Engine<Key> engine(SmallConfig(), source);
        return engine.Build();
      }));
  OPAQ_CHECK_OK(server.Start());

  auto client = QueryClient<Key>::Connect("127.0.0.1", server.port(), "live");
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client->info().epoch, 1u);
  EXPECT_EQ(client->info().total_elements, 10000u);

  // Twice as much data arrives; rebuild and swap.
  *shared = std::make_shared<const std::vector<Key>>(TestData(20000, 11));
  OPAQ_CHECK_OK(server.Refresh("live"));
  auto refreshed = client->OpenSession();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->epoch, 2u);
  EXPECT_EQ(refreshed->total_elements, 20000u);

  // Answers now come from the new epoch and match a local session over the
  // new data byte for byte.
  Source<Key> source = Source<Key>::FromVector(**shared);
  Engine<Key> engine(SmallConfig(), source);
  auto local = engine.Build();
  ASSERT_TRUE(local.ok());
  const std::vector<Request> batch = {Request::Quantile(0.5),
                                      Request::EquiQuantiles(4)};
  auto remote = client->QueryPayload({batch.data(), batch.size()});
  ASSERT_TRUE(remote.ok());
  auto answers = local->Query({batch.data(), batch.size()});
  ASSERT_TRUE(answers.ok());
  auto expected = EncodeQueryResultsPayload(*answers);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*remote, *expected);
  server.Stop();
}

// ------------------------------------------------ daemon SIGTERM rows ----

struct DaemonRun {
  int exit_code = -1;
  std::string output;
  std::string address;
};

/// Forks/execs a daemon binary, waits for its "serving on HOST:PORT" line,
/// runs `while_serving(address)`, SIGTERMs it, and collects exit status +
/// full output (stdout and stderr). The real binaries, the real signal
/// path. A daemon that fails at startup never prints the line; the run
/// then just collects its exit status and error message.
DaemonRun RunDaemonUntilSigterm(
    const char* binary, const std::vector<std::string>& args,
    const std::function<void(const std::string&)>& while_serving) {
  DaemonRun run;
  int fds[2];
  OPAQ_CHECK(pipe(fds) == 0);
  const pid_t pid = fork();
  OPAQ_CHECK(pid >= 0);
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    dup2(fds[1], STDERR_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv(binary, argv.data());
    _exit(127);
  }
  close(fds[1]);
  FILE* out = fdopen(fds[0], "r");
  OPAQ_CHECK(out != nullptr);
  char line[512];
  bool serving = false;
  while (fgets(line, sizeof(line), out) != nullptr) {
    run.output += line;
    if (!serving) {
      const std::string text(line);
      const size_t at = text.find("serving on ");
      if (at != std::string::npos) {
        serving = true;
        const size_t start = at + std::string("serving on ").size();
        size_t end = text.find(' ', start);
        if (end == std::string::npos) end = text.find('\n', start);
        run.address = text.substr(start, end - start);
        if (while_serving) while_serving(run.address);
        kill(pid, SIGTERM);
      }
    }
  }
  fclose(out);
  int status = 0;
  OPAQ_CHECK(waitpid(pid, &status, 0) == pid);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

uint16_t PortOf(const std::string& address) {
  const size_t colon = address.rfind(':');
  OPAQ_CHECK(colon != std::string::npos) << address;
  return static_cast<uint16_t>(
      std::strtoul(address.c_str() + colon + 1, nullptr, 10));
}

std::string WriteTestDataFile(const TempDir& dir, const std::string& name,
                              uint64_t n) {
  const std::string path = dir.FilePath(name);
  auto device = FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
  OPAQ_CHECK_OK(device.status());
  DatasetSpec spec;
  spec.n = n;
  spec.seed = 3;
  OPAQ_CHECK_OK(GenerateDatasetToDevice<Key>(spec, device->get()));
  OPAQ_CHECK_OK((*device)->Sync());
  return path;
}

TEST(DaemonSignalTest, QuerydJoinsCleanlyOnSigterm) {
  auto dir = TempDir::Make("queryd_sig");
  OPAQ_CHECK_OK(dir.status());
  const std::string path = WriteTestDataFile(*dir, "d.opaq", 20000);
  DaemonRun run = RunDaemonUntilSigterm(
      OPAQ_QUERYD_BIN,
      {"--serve=bench=" + path, "--port=0", "--run-size=4096",
       "--samples=64"},
      [](const std::string& address) {
        // A live connection with a query in flight while the signal lands:
        // Stop() must join this connection's thread, not abandon it.
        auto client = QueryClient<Key>::Connect("127.0.0.1",
                                                PortOf(address), "bench");
        OPAQ_CHECK_OK(client.status());
        std::vector<Request> batch = {Request::Quantile(0.5)};
        OPAQ_CHECK_OK(
            client->Query({batch.data(), batch.size()}).status());
      });
  EXPECT_EQ(run.exit_code, 0) << run.output;
  // The final dump is the unified registry rendering: one FormatStatsText
  // block whose rows carry the net.* vocabulary plus the query server's own
  // metrics (the pre-registry ad-hoc counter lines are gone).
  EXPECT_NE(run.output.find("shutdown: signal received; final stats:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("net.connections_accepted"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("query.exact_passes"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("query.batch_latency_us"), std::string::npos)
      << run.output;
}

TEST(DaemonSignalTest, NodedJoinsCleanlyOnSigterm) {
  auto dir = TempDir::Make("noded_sig");
  OPAQ_CHECK_OK(dir.status());
  const std::string path = WriteTestDataFile(*dir, "d.opaq", 20000);
  DaemonRun run = RunDaemonUntilSigterm(
      OPAQ_NODED_BIN, {"--export=sales=" + path, "--port=0"},
      [](const std::string& address) {
        auto client = NodeClient::Connect("127.0.0.1", PortOf(address));
        OPAQ_CHECK_OK(client.status());
        OPAQ_CHECK_OK(client->Ping());
      });
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("shutdown: signal received; final stats:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("net.connections_accepted"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("node.exports"), std::string::npos)
      << run.output;
}

// ------------------------------------------- daemon opener matrix ----
//
// Every on-disk layout (plain, 3-stripe plain, extent, 2-stripe extent) for
// a 32-bit integer and a double key type, plus a live directory, served by
// both daemons: the remote sketch (opaq_noded) and the remote answers
// (opaq_queryd) must equal a local Source over the same files.

struct LayoutCase {
  std::string name;
  uint64_t stripes = 1;
  bool extent = false;
};

const std::vector<LayoutCase>& Layouts() {
  static const std::vector<LayoutCase> layouts = {
      {"plain", 1, false},
      {"striped", 3, false},
      {"extent", 1, true},
      {"striped_extent", 2, true},
  };
  return layouts;
}

template <typename K>
std::vector<K> MatrixData() {
  DatasetSpec spec;
  spec.n = 30000;
  spec.seed = 11;
  spec.distribution = Distribution::kZipf;
  return GenerateDataset<K>(spec);
}

/// Writes `data` in `layout` under `dir`; returns the paths in stripe order.
template <typename K>
std::vector<std::string> WriteLayout(const TempDir& dir,
                                     const LayoutCase& layout,
                                     const std::vector<K>& data) {
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<FileBlockDevice>> devices;
  std::vector<BlockDevice*> raw;
  for (uint64_t s = 0; s < layout.stripes; ++s) {
    paths.push_back(dir.FilePath(layout.name + "_" + KeyTraits<K>::kName +
                                 ".s" + std::to_string(s)));
    auto device =
        FileBlockDevice::Make(paths.back(), FileBlockDevice::Mode::kCreate);
    OPAQ_CHECK_OK(device.status());
    devices.push_back(std::move(device).value());
    raw.push_back(devices.back().get());
  }
  if (layout.extent) {
    ExtentWriterOptions options;
    options.extent_elements = 4096;
    options.codec = ExtentCodec::kDelta;
    OPAQ_CHECK_OK(WriteExtents(data, raw, options).status());
  } else if (layout.stripes > 1) {
    OPAQ_CHECK_OK(WriteStriped(data, raw, /*chunk_elements=*/1000).status());
  } else {
    OPAQ_CHECK_OK(WriteDataset(data, raw[0]));
  }
  for (auto& device : devices) OPAQ_CHECK_OK(device->Sync());
  return paths;
}

/// A u32 live directory of three segments, the last one extent-packed.
std::string WriteLiveDir(const TempDir& dir) {
  const std::string path = dir.FilePath("live");
  const std::vector<uint32_t> data = MatrixData<uint32_t>();
  const size_t third = data.size() / 3;
  auto writer = LiveDataset<uint32_t>::Create(path);
  OPAQ_CHECK_OK(writer.status());
  OPAQ_CHECK_OK(writer->Append({data.begin(), data.begin() + third}));
  OPAQ_CHECK_OK(
      writer->Append({data.begin() + third, data.begin() + 2 * third}));
  LiveDatasetOptions packed;
  packed.pack = true;
  packed.extent_elements = 2048;
  auto packer = LiveDataset<uint32_t>::Open(path, packed);
  OPAQ_CHECK_OK(packer.status());
  OPAQ_CHECK_OK(packer->Append({data.begin() + 2 * third, data.end()}));
  return path;
}

std::string JoinPaths(const std::vector<std::string>& paths) {
  std::string joined;
  for (const std::string& path : paths) {
    joined += (joined.empty() ? "" : "+") + path;
  }
  return joined;
}

template <typename K>
Source<K> OpenLocal(const std::vector<std::string>& paths) {
  auto source = Source<K>::Open(paths);
  OPAQ_CHECK_OK(source.status());
  return std::move(source).value();
}

template <typename K>
std::vector<uint8_t> SketchBytesOf(const Source<K>& source) {
  auto session = Engine<K>(SmallConfig(), source).Build();
  OPAQ_CHECK_OK(session.status());
  MemoryBlockDevice out;
  OPAQ_CHECK_OK(SaveSampleList(session->sample_list(), &out));
  auto size = out.Size();
  OPAQ_CHECK_OK(size.status());
  std::vector<uint8_t> bytes(*size);
  OPAQ_CHECK_OK(out.ReadAt(0, bytes.data(), bytes.size()));
  return bytes;
}

/// opaq_noded serving `paths` under `flag` (--export or --live): a remote
/// sketch with node-side compute equals the local sketch of the same files,
/// and one over streamed runs (compute off) equals `streamed`.
template <typename K>
void ExpectNodedMatchesLocal(const std::string& flag,
                             const std::vector<std::string>& paths,
                             const std::vector<uint8_t>& streamed) {
  const std::vector<uint8_t> expected = SketchBytesOf(OpenLocal<K>(paths));
  std::vector<std::vector<uint8_t>> remote;
  DaemonRun run = RunDaemonUntilSigterm(
      OPAQ_NODED_BIN, {flag + "=d=" + JoinPaths(paths), "--port=0"},
      [&](const std::string& address) {
        for (bool compute : {true, false}) {
          NodeClientOptions options;
          options.node_compute = compute;
          auto source = Source<K>::OpenRemote(address + "/d", options);
          OPAQ_CHECK_OK(source.status());
          remote.push_back(SketchBytesOf(*source));
        }
      });
  EXPECT_EQ(run.exit_code, 0) << run.output;
  ASSERT_EQ(remote.size(), 2u) << run.output;
  EXPECT_EQ(remote[0], expected) << "node-side compute diverges";
  EXPECT_EQ(remote[1], streamed) << "streamed runs diverge";
}

/// opaq_queryd serving `paths` under `flag` (--serve or --watch): every
/// answer payload equals the local session's over the same files.
template <typename K>
void ExpectQuerydMatchesLocal(const std::string& flag,
                              const std::vector<std::string>& paths) {
  using Req = QueryRequest<K>;
  auto local = Engine<K>(SmallConfig(), OpenLocal<K>(paths)).Build();
  OPAQ_CHECK_OK(local.status());
  const std::vector<std::vector<Req>> batches = {
      {Req::Quantile(0.5), Req::Quantile(0.99), Req::EquiQuantiles(10)},
      {Req::Quantile(0.25, /*exact=*/true), Req::EquiQuantiles(4, true)},
  };
  std::vector<std::vector<uint8_t>> remote;
  DaemonRun run = RunDaemonUntilSigterm(
      OPAQ_QUERYD_BIN,
      {flag + "=d=" + JoinPaths(paths), "--port=0", "--run-size=4096",
       "--samples=64"},
      [&](const std::string& address) {
        auto client = QueryClient<K>::Connect("127.0.0.1", PortOf(address),
                                              "d");
        OPAQ_CHECK_OK(client.status());
        for (const std::vector<Req>& batch : batches) {
          auto payload = client->QueryPayload({batch.data(), batch.size()});
          OPAQ_CHECK_OK(payload.status());
          remote.push_back(std::move(payload).value());
        }
      });
  EXPECT_EQ(run.exit_code, 0) << run.output;
  ASSERT_EQ(remote.size(), batches.size()) << run.output;
  for (size_t i = 0; i < batches.size(); ++i) {
    auto answers = local->Query({batches[i].data(), batches[i].size()});
    OPAQ_CHECK_OK(answers.status());
    auto expected = EncodeQueryResultsPayload(*answers);
    OPAQ_CHECK_OK(expected.status());
    EXPECT_EQ(remote[i], *expected) << "batch " << i;
  }
}

template <typename K>
void ExpectEveryLayoutServed() {
  auto dir = TempDir::Make("daemon_matrix");
  OPAQ_CHECK_OK(dir.status());
  const std::vector<K> data = MatrixData<K>();
  for (const LayoutCase& layout : Layouts()) {
    SCOPED_TRACE(layout.name + " " + KeyTraits<K>::kName);
    const std::vector<std::string> paths = WriteLayout(*dir, layout, data);
    ExpectNodedMatchesLocal<K>("--export", paths,
                               SketchBytesOf(OpenLocal<K>(paths)));
    ExpectQuerydMatchesLocal<K>("--serve", paths);
  }
}

TEST(DaemonOpenerMatrixTest, EveryLayoutU32) {
  ExpectEveryLayoutServed<uint32_t>();
}

TEST(DaemonOpenerMatrixTest, EveryLayoutF64) {
  ExpectEveryLayoutServed<double>();
}

TEST(DaemonOpenerMatrixTest, LiveDirectory) {
  auto dir = TempDir::Make("daemon_live");
  OPAQ_CHECK_OK(dir.status());
  const std::string live = WriteLiveDir(*dir);
  // A live dataset cuts runs per segment; a remote stream of it is one flat
  // range, so streamed runs sketch like the same elements in memory.
  ExpectNodedMatchesLocal<uint32_t>(
      "--live", {live},
      SketchBytesOf(Source<uint32_t>::FromVector(MatrixData<uint32_t>())));
  ExpectQuerydMatchesLocal<uint32_t>("--watch", {live});
  // --serve takes a live directory as well; its refreshes rebuild in full.
  ExpectQuerydMatchesLocal<uint32_t>("--serve", {live});
}

TEST(DaemonOpenerMatrixTest, NodedExportOfADirectoryPointsAtLive) {
  auto dir = TempDir::Make("daemon_live_export");
  OPAQ_CHECK_OK(dir.status());
  const std::string live = WriteLiveDir(*dir);
  DaemonRun run = RunDaemonUntilSigterm(
      OPAQ_NODED_BIN, {"--export=d=" + live, "--port=0"}, nullptr);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("--live=NAME=DIR"), std::string::npos)
      << run.output;
}

TEST(DaemonHelpTest, NodedHelpShowsTheBuildsDefaultWireVersion) {
  // One wire version and no knob to cap it: the help names the version,
  // the flag is gone, and the serving banner prints the one version.
  DaemonRun run = RunDaemonUntilSigterm(OPAQ_NODED_BIN, {"--help"}, nullptr);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  const std::string version =
      "protocol version " + std::to_string(kWireVersion);
  EXPECT_NE(run.output.find(version), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("wire-version"), std::string::npos)
      << run.output;

  auto dir = TempDir::Make("noded_banner");
  OPAQ_CHECK_OK(dir.status());
  const std::string path = WriteTestDataFile(*dir, "d.opaq", 1000);
  DaemonRun serving = RunDaemonUntilSigterm(
      OPAQ_NODED_BIN, {"--export=d=" + path, "--port=0"}, nullptr);
  ASSERT_FALSE(serving.address.empty()) << serving.output;
  EXPECT_NE(serving.output.find("serving on " + serving.address + " (" +
                                version + ", "),
            std::string::npos)
      << serving.output;

  DaemonRun capped = RunDaemonUntilSigterm(
      OPAQ_NODED_BIN,
      {"--export=d=" + path, "--port=0", "--max-wire-version=1"}, nullptr);
  EXPECT_EQ(capped.exit_code, 2) << capped.output;
  EXPECT_NE(capped.output.find("unknown flag --max-wire-version"),
            std::string::npos)
      << capped.output;
}

TEST(DaemonHelpTest, NodedBoundsComputeRunsWithMaxComputeRunBytes) {
  DaemonRun help = RunDaemonUntilSigterm(OPAQ_NODED_BIN, {"--help"}, nullptr);
  EXPECT_NE(help.output.find("--max-compute-run-bytes="), std::string::npos)
      << help.output;

  auto dir = TempDir::Make("noded_compute_bound");
  OPAQ_CHECK_OK(dir.status());
  const std::string path = WriteTestDataFile(*dir, "d.opaq", 20000);
  DaemonRun zero = RunDaemonUntilSigterm(
      OPAQ_NODED_BIN,
      {"--export=d=" + path, "--port=0", "--max-compute-run-bytes=0"},
      nullptr);
  EXPECT_EQ(zero.exit_code, 2) << zero.output;
  EXPECT_NE(zero.output.find("--max-compute-run-bytes must be >= 1"),
            std::string::npos)
      << zero.output;

  // 1024 bytes hold 128 keys: a 128-element run is sampled node-side, a
  // 129-element run is refused by the bound.
  const auto sample = [](const std::string& address, uint64_t run_size) {
    auto client = NodeClient::Connect("127.0.0.1", PortOf(address));
    OPAQ_CHECK_OK(client.status());
    WireSampleRunsRequest request;
    request.run_size = run_size;
    request.samples_per_run = 1;
    const std::vector<uint8_t> payload =
        EncodeSampleRunsPayload(request, "d");
    OPAQ_CHECK_OK(client->SendRequest(WireOp::kSampleRuns, payload.data(),
                                      payload.size()));
    return client->ReceiveResponse(WireOp::kSampleListData).status();
  };
  static_assert(sizeof(Key) == 8, "the bound below counts 8-byte keys");
  Status fits, too_big;
  DaemonRun bounded = RunDaemonUntilSigterm(
      OPAQ_NODED_BIN,
      {"--export=d=" + path, "--port=0", "--max-compute-run-bytes=1024"},
      [&](const std::string& address) {
        fits = sample(address, 128);
        too_big = sample(address, 129);
      });
  EXPECT_EQ(bounded.exit_code, 0) << bounded.output;
  EXPECT_TRUE(fits.ok()) << fits.ToString();
  EXPECT_EQ(too_big.code(), StatusCode::kResourceExhausted)
      << too_big.ToString();
  EXPECT_NE(too_big.message().find("per-run memory bound"), std::string::npos)
      << too_big.ToString();
}

TEST(DaemonOpenerMatrixTest, HostileFilesFailWithStatus) {
  auto dir = TempDir::Make("daemon_hostile");
  OPAQ_CHECK_OK(dir.status());
  const std::string bad_tag = dir->FilePath("tag99.opaq");
  {
    auto device =
        FileBlockDevice::Make(bad_tag, FileBlockDevice::Mode::kCreate);
    OPAQ_CHECK_OK(device.status());
    DataFileHeader header;
    header.key_type = 99;
    header.element_size = 8;
    OPAQ_CHECK_OK((*device)->WriteAt(0, &header, sizeof(header)));
  }
  const std::string tiny = dir->FilePath("tiny.opaq");
  {
    auto device = FileBlockDevice::Make(tiny, FileBlockDevice::Mode::kCreate);
    OPAQ_CHECK_OK(device.status());
    OPAQ_CHECK_OK((*device)->WriteAt(0, "abc", 3));
  }
  for (const std::string& path : {bad_tag, tiny}) {
    for (const auto& daemon :
         std::vector<std::pair<const char*, std::string>>{
             {OPAQ_NODED_BIN, "--export"}, {OPAQ_QUERYD_BIN, "--serve"}}) {
      SCOPED_TRACE(std::string(daemon.first) + " " + path);
      DaemonRun run = RunDaemonUntilSigterm(
          daemon.first, {daemon.second + "=d=" + path, "--port=0"}, nullptr);
      EXPECT_EQ(run.exit_code, 1) << run.output;
      EXPECT_NE(run.output.find(": error: "), std::string::npos)
          << run.output;
      EXPECT_EQ(run.output.find("serving on"), std::string::npos)
          << run.output;
      if (path == bad_tag) {
        EXPECT_NE(run.output.find("99"), std::string::npos) << run.output;
      }
    }
  }
}

}  // namespace
}  // namespace opaq
