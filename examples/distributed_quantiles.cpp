// Distributed quantiles over OPAQ data nodes: N loopback `NodeServer`s
// (the engine inside `opaq_noded`) each serve one shard of the data; one
// multi-shard `Engine` consumes them through `Source::OpenRemote` and
// answers a batched query with certified brackets plus exact values.
//
// With node compute on (the default) each node runs the paper's sample
// phase and §4 filter scan itself and ships only sample lists and bracket
// survivors; under `--node-compute=0` the client streams every run over the
// wire and computes locally. Either way the punchline of the RunProvider seam
// holds: the distributed answers are asserted IDENTICAL
// (bracket-for-bracket, value-for-value) to a single-process run over the
// same logical data. The network, like prefetching and striping before
// it, moves time and bytes — never data values.
//
// Run:  ./distributed_quantiles [--shards=3] [--per-shard=200000]
//       [--samples=256] [--node-compute=1]

#include <iostream>
#include <memory>
#include <vector>

#include "opaq/opaq.h"

using namespace opaq;

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  OPAQ_CHECK_OK(flags.status());
  const int shards = static_cast<int>(flags->GetInt("shards", 3));
  const uint64_t per_shard = flags->GetInt("per-shard", 200000);
  const uint64_t samples = flags->GetInt("samples", 256);
  OPAQ_CHECK(shards >= 1);
  NodeClientOptions client_options;
  client_options.node_compute = flags->GetInt("node-compute", 1) != 0;

  OpaqConfig config;
  config.run_size = 1 << 14;
  config.samples_per_run = samples;
  config.io_mode = IoMode::kAsync;  // pipelined request-ahead per shard

  // --- Data nodes: one per shard, each serving its own dataset. A real
  // deployment runs `opaq_noded --export=shard=...` on other machines;
  // here the nodes live in-process on loopback ports.
  std::vector<std::unique_ptr<MemoryBlockDevice>> devices;
  std::vector<std::unique_ptr<TypedDataFile<uint64_t>>> files;
  std::vector<std::unique_ptr<NodeServer>> nodes;
  std::vector<Source<uint64_t>> remote_shards, local_shards;
  for (int s = 0; s < shards; ++s) {
    DatasetSpec spec;
    spec.n = per_shard;
    spec.seed = 1234 + s;
    spec.distribution = s % 2 ? Distribution::kZipf : Distribution::kUniform;
    devices.push_back(std::make_unique<MemoryBlockDevice>());
    OPAQ_CHECK_OK(WriteDataset(GenerateDataset<uint64_t>(spec),
                               devices.back().get()));
    auto file = TypedDataFile<uint64_t>::Open(devices.back().get());
    OPAQ_CHECK_OK(file.status());
    files.push_back(
        std::make_unique<TypedDataFile<uint64_t>>(std::move(file).value()));

    NodeServerOptions options;  // loopback, ephemeral port
    nodes.push_back(std::make_unique<NodeServer>(options));
    nodes.back()->Export("shard", files.back().get());
    OPAQ_CHECK_OK(nodes.back()->Start());
    const std::string spec_text = nodes.back()->address() + "/shard";
    std::cout << "node " << s << ": serving " << per_shard << " keys at "
              << spec_text << "\n";

    auto remote = Source<uint64_t>::OpenRemote(spec_text, client_options);
    OPAQ_CHECK_OK(remote.status());
    std::cout << "       "
              << (remote->remote_compute() ? "node-side compute"
                                           : "range streaming")
              << "\n";
    remote_shards.push_back(std::move(remote).value());
    local_shards.push_back(Source<uint64_t>::FromFile(files.back().get()));
  }

  // --- One Engine across all nodes, one batched query: dectile brackets
  // and exact 10/50/90th percentiles sharing a single second pass (which
  // also streams over the network).
  auto session = Engine<uint64_t>(config, remote_shards).Build();
  OPAQ_CHECK_OK(session.status());
  auto batch = session->Query({
      QueryRequest<uint64_t>::EquiQuantiles(10),
      QueryRequest<uint64_t>::Quantile(0.1, /*exact=*/true),
      QueryRequest<uint64_t>::Quantile(0.5, /*exact=*/true),
      QueryRequest<uint64_t>::Quantile(0.9, /*exact=*/true),
  });
  OPAQ_CHECK_OK(batch.status());

  std::cout << "\n" << shards << " nodes x " << per_shard
            << " keys -> dectile brackets (rank error <= "
            << batch->max_rank_error << "):\n";
  const auto& dectiles = batch->results[0].estimates;
  for (size_t i = 0; i < dectiles.size(); ++i) {
    std::cout << "  " << (i + 1) * 10 << "%  [" << dectiles[i].lower << ", "
              << dectiles[i].upper << "]\n";
  }
  std::cout << "exact p10/p50/p90: " << batch->results[1].exact[0] << " / "
            << batch->results[2].exact[0] << " / "
            << batch->results[3].exact[0] << "\n";

  // --- The certificate of the subsystem: a single-process Engine over the
  // same shards (local backend, same order) must answer IDENTICALLY.
  auto local_session = Engine<uint64_t>(config, local_shards).Build();
  OPAQ_CHECK_OK(local_session.status());
  auto local_batch = local_session->Query({
      QueryRequest<uint64_t>::EquiQuantiles(10),
      QueryRequest<uint64_t>::Quantile(0.1, /*exact=*/true),
      QueryRequest<uint64_t>::Quantile(0.5, /*exact=*/true),
      QueryRequest<uint64_t>::Quantile(0.9, /*exact=*/true),
  });
  OPAQ_CHECK_OK(local_batch.status());
  const auto& local_dectiles = local_batch->results[0].estimates;
  OPAQ_CHECK_EQ(dectiles.size(), local_dectiles.size());
  for (size_t i = 0; i < dectiles.size(); ++i) {
    OPAQ_CHECK_EQ(dectiles[i].lower, local_dectiles[i].lower);
    OPAQ_CHECK_EQ(dectiles[i].upper, local_dectiles[i].upper);
    OPAQ_CHECK_EQ(dectiles[i].target_rank, local_dectiles[i].target_rank);
  }
  for (size_t r = 1; r <= 3; ++r) {
    OPAQ_CHECK_EQ(batch->results[r].exact[0], local_batch->results[r].exact[0]);
  }
  std::cout << "\nverified: distributed answers identical to a "
               "single-process run over the same data\n";

  for (auto& node : nodes) node->Stop();
  return 0;
}
