// Cross-backend conformance harness: for ANY config, the sync, async,
// striped, COMPRESSED-EXTENT and REMOTE (loopback data-node) storage
// backends must be indistinguishable in their output — byte-identical
// serialized sketches and identical final quantiles (both estimated
// brackets and exact second-pass values). Prefetch threads, stripe
// fan-out, the network and the codecs may reorder time and shrink bytes,
// never change data.
//
// The sweep is a seeded pseudo-random walk over the config space {n, run
// length, key distribution, stripes 1/2/4, chunk size, prefetch depth},
// deliberately biased toward ragged shapes (n not divisible by the run,
// runs not divisible by the chunk, partial tail chunks), plus a set of
// fixed edge cases. Deterministic: one master seed drives everything.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/exact.h"
#include "core/opaq.h"
#include "core/sketch_io.h"
#include "data/dataset.h"
#include "ingest/live_dataset.h"
#include "io/async_run_reader.h"
#include "io/block_device.h"
#include "io/codec.h"
#include "io/extent.h"
#include "io/striped_data_file.h"
#include "io/striped_run_source.h"
#include "io/tempdir.h"
#include "net/node_server.h"
#include "net/remote_extent_source.h"
#include "net/remote_source.h"
#include "opaq/engine.h"
#include "opaq/query.h"
#include "opaq/source.h"
#include "parallel/parallel_opaq.h"
#include "parallel/worker_pool.h"
#include "util/random.h"

namespace opaq {
namespace {

using Key = uint64_t;

struct SweepCase {
  uint64_t n = 0;
  uint64_t run_size = 0;
  uint64_t samples_per_run = 0;
  uint64_t chunk = 0;
  Distribution distribution = Distribution::kUniform;
  uint64_t data_seed = 0;
  uint64_t sketch_seed = 0;

  std::string Describe() const {
    return "n=" + std::to_string(n) + " m=" + std::to_string(run_size) +
           " s=" + std::to_string(samples_per_run) +
           " chunk=" + std::to_string(chunk) +
           " dist=" + DistributionName(distribution) +
           " seed=" + std::to_string(data_seed);
  }
};

// The serialized sample list — the strongest practical equality.
std::vector<uint8_t> SampleListBytes(const SampleList<Key>& list) {
  MemoryBlockDevice out;
  OPAQ_CHECK_OK(SaveSampleList(list, &out));
  auto size = out.Size();
  OPAQ_CHECK_OK(size.status());
  std::vector<uint8_t> bytes(*size);
  OPAQ_CHECK_OK(out.ReadAt(0, bytes.data(), bytes.size()));
  return bytes;
}

// Runs the full sample phase through `provider` with the given io mode and
// returns the serialized sketch.
std::vector<uint8_t> SketchBytes(const RunProvider<Key>& provider,
                                 const SweepCase& c, IoMode io_mode,
                                 uint64_t prefetch_depth) {
  OpaqConfig config;
  config.run_size = c.run_size;
  config.samples_per_run = c.samples_per_run;
  config.seed = c.sketch_seed;
  config.io_mode = io_mode;
  config.prefetch_depth = prefetch_depth;
  OpaqSketch<Key> sketch(config);
  OPAQ_CHECK_OK(sketch.Consume(provider));
  return SampleListBytes(sketch.FinalizeSampleList());
}

// Same sample phase, driven through the public facade: an Engine over a
// Source must leave exactly the bytes the direct sketch leaves.
std::vector<uint8_t> EngineSketchBytes(const Source<Key>& source,
                                       const SweepCase& c, IoMode io_mode,
                                       uint64_t prefetch_depth) {
  OpaqConfig config;
  config.run_size = c.run_size;
  config.samples_per_run = c.samples_per_run;
  config.seed = c.sketch_seed;
  config.io_mode = io_mode;
  config.prefetch_depth = prefetch_depth;
  auto session = Engine<Key>(config, source).Build();
  OPAQ_CHECK_OK(session.status());
  return SampleListBytes(session->sample_list());
}

// One plain file, one D-striped file and one D-striped COMPRESSED extent
// file over the same logical data, with all their devices, kept alive
// together. The extent file reuses `chunk` as its extent size so the sweep
// drags compression through the same ragged geometry as striping, and
// alternates codecs (delta / zlib when available) across stripe widths.
struct Backends {
  std::vector<std::unique_ptr<MemoryBlockDevice>> devices;
  std::unique_ptr<TypedDataFile<Key>> plain_file;
  std::unique_ptr<StripedDataFile<Key>> striped_file;
  std::unique_ptr<ExtentFile> extent_file;
  std::unique_ptr<FileRunProvider<Key>> plain;
  std::unique_ptr<StripedFileProvider<Key>> striped;
  std::unique_ptr<ExtentFileProvider<Key>> extent;

  Backends(const std::vector<Key>& data, int stripes, uint64_t chunk) {
    devices.push_back(std::make_unique<MemoryBlockDevice>());
    OPAQ_CHECK_OK(WriteDataset(data, devices.back().get()));
    auto file = TypedDataFile<Key>::Open(devices.back().get());
    OPAQ_CHECK_OK(file.status());
    plain_file =
        std::make_unique<TypedDataFile<Key>>(std::move(file).value());
    plain = std::make_unique<FileRunProvider<Key>>(plain_file.get());

    std::vector<BlockDevice*> raw;
    for (int s = 0; s < stripes; ++s) {
      devices.push_back(std::make_unique<MemoryBlockDevice>());
      raw.push_back(devices.back().get());
    }
    auto striped_result = WriteStriped(data, raw, chunk);
    OPAQ_CHECK_OK(striped_result.status());
    striped_file = std::make_unique<StripedDataFile<Key>>(
        std::move(striped_result).value());
    striped = std::make_unique<StripedFileProvider<Key>>(striped_file.get());

    std::vector<BlockDevice*> extent_raw;
    for (int s = 0; s < stripes; ++s) {
      devices.push_back(std::make_unique<MemoryBlockDevice>());
      extent_raw.push_back(devices.back().get());
    }
    ExtentWriterOptions extent_options;
    extent_options.extent_elements = chunk;
    extent_options.codec =
        stripes % 2 == 0 && CodecAvailable(ExtentCodec::kZlib)
            ? ExtentCodec::kZlib
            : ExtentCodec::kDelta;
    OPAQ_CHECK_OK(WriteExtents(data, extent_raw, extent_options).status());
    auto extent_result = ExtentFile::Open(extent_raw);
    OPAQ_CHECK_OK(extent_result.status());
    extent_file =
        std::make_unique<ExtentFile>(std::move(extent_result).value());
    extent = std::make_unique<ExtentFileProvider<Key>>(extent_file.get());
  }
};

// The conformance core: every backend/mode/depth combination must produce
// the reference (plain sync) sketch bytes.
void ExpectAllBackendsAgree(const SweepCase& c) {
  DatasetSpec spec;
  spec.n = c.n;
  spec.distribution = c.distribution;
  spec.seed = c.data_seed;
  std::vector<Key> data = GenerateDataset<Key>(spec);

  std::vector<uint8_t> reference;
  for (int stripes : {1, 2, 4}) {
    Backends backends(data, stripes, c.chunk);
    // The striped file must hold exactly the logical dataset.
    auto striped_all = backends.striped_file->ReadAll();
    ASSERT_TRUE(striped_all.ok()) << c.Describe();
    ASSERT_EQ(*striped_all, data) << c.Describe() << " stripes=" << stripes;

    if (reference.empty()) {
      reference = SketchBytes(*backends.plain, c, IoMode::kSync, 2);
      ASSERT_FALSE(reference.empty()) << c.Describe();
    }
    for (uint64_t depth : {1u, 2u, 5u}) {
      EXPECT_EQ(SketchBytes(*backends.plain, c, IoMode::kAsync, depth),
                reference)
          << c.Describe() << " async depth=" << depth;
      EXPECT_EQ(SketchBytes(*backends.striped, c, IoMode::kAsync, depth),
                reference)
          << c.Describe() << " striped x" << stripes << " depth=" << depth;
    }
    EXPECT_EQ(SketchBytes(*backends.striped, c, IoMode::kSync, 2), reference)
        << c.Describe() << " striped-inline x" << stripes;

    // Compressed extents: the same logical data stored packed — inline
    // decode and per-stripe decode threads — must leave the exact
    // reference bytes. Compression must be invisible to the sketch.
    for (uint64_t depth : {1u, 2u, 5u}) {
      EXPECT_EQ(SketchBytes(*backends.extent, c, IoMode::kAsync, depth),
                reference)
          << c.Describe() << " extent x" << stripes << " ("
          << ExtentCodecName(backends.extent_file->default_codec())
          << ") depth=" << depth;
    }
    EXPECT_EQ(SketchBytes(*backends.extent, c, IoMode::kSync, 2), reference)
        << c.Describe() << " extent-inline x" << stripes;

    // Remote: a loopback node serving the SAME layouts must leave the
    // same bytes — the wire moves data, never changes it. Plain export at
    // stripes == 1, the striped export at each wider fan-out.
    NodeServer node;
    node.Export("plain", backends.plain_file.get());
    node.Export("striped", backends.striped_file.get());
    node.Export<Key>("extent", backends.extent_file.get());
    OPAQ_CHECK_OK(node.Start());
    const std::string remote_name = stripes == 1 ? "plain" : "striped";
    auto remote =
        RemoteRunProvider<Key>::Connect(node.address() + "/" + remote_name);
    OPAQ_CHECK_OK(remote.status());
    EXPECT_EQ(SketchBytes(*remote, c, IoMode::kSync, 2), reference)
        << c.Describe() << " remote/" << remote_name << " sync";
    EXPECT_EQ(SketchBytes(*remote, c, IoMode::kAsync, 2), reference)
        << c.Describe() << " remote/" << remote_name << " async";

    // Wire v4 extent streaming: packed extents on the wire, decoded client
    // side — and a v1 range stream of the SAME compressed export (the node
    // decodes server-side). Both must leave the reference bytes.
    auto remote_extent =
        RemoteExtentProvider<Key>::Connect(node.address() + "/extent");
    OPAQ_CHECK_OK(remote_extent.status());
    EXPECT_EQ(SketchBytes(*remote_extent, c, IoMode::kSync, 2), reference)
        << c.Describe() << " remote-extent x" << stripes << " sync";
    EXPECT_EQ(SketchBytes(*remote_extent, c, IoMode::kAsync, 2), reference)
        << c.Describe() << " remote-extent x" << stripes << " async";
    auto remote_extent_v1 =
        RemoteRunProvider<Key>::Connect(node.address() + "/extent");
    OPAQ_CHECK_OK(remote_extent_v1.status());
    EXPECT_EQ(SketchBytes(*remote_extent_v1, c, IoMode::kAsync, 2),
              reference)
        << c.Describe() << " remote-extent x" << stripes
        << " via v1 range stream";

    // The same equalities must hold when the facade drives the pass: an
    // Engine over a Source wrapping each backend — plain file, striped
    // file, and the in-memory vector — leaves byte-identical sketches.
    // (Engine refuses datasets too small for even one sample — n below the
    // sub-run size — with FailedPrecondition instead of an empty list.)
    if (c.n < c.run_size / c.samples_per_run) {
      OpaqConfig config;
      config.run_size = c.run_size;
      config.samples_per_run = c.samples_per_run;
      auto too_small =
          Engine<Key>(config, Source<Key>::FromVector(data)).Build();
      EXPECT_EQ(too_small.status().code(), StatusCode::kFailedPrecondition)
          << c.Describe();
      continue;
    }
    EXPECT_EQ(EngineSketchBytes(Source<Key>::FromFile(backends.plain_file.get()),
                                c, IoMode::kSync, 2),
              reference)
        << c.Describe() << " Engine/Source plain";
    EXPECT_EQ(EngineSketchBytes(
                  Source<Key>::FromFile(backends.striped_file.get()), c,
                  IoMode::kAsync, 2),
              reference)
        << c.Describe() << " Engine/Source striped x" << stripes;
    auto extent_source = Source<Key>::FromFile(backends.extent_file.get());
    OPAQ_CHECK_OK(extent_source.status());
    EXPECT_EQ(EngineSketchBytes(*extent_source, c, IoMode::kAsync, 2),
              reference)
        << c.Describe() << " Engine/Source extent x" << stripes;
    if (stripes == 1) {
      EXPECT_EQ(EngineSketchBytes(Source<Key>::FromVector(data), c,
                                  IoMode::kSync, 2),
                reference)
          << c.Describe() << " Engine/Source in-memory";
      // Wire v2 (default: the node computes the sample list itself and
      // ships O(s) bytes) and forced v1 (the client streams raw runs) must
      // BOTH leave the reference bytes — the strongest statement that the
      // distributed sample phase is the same computation.
      auto remote_source = Source<Key>::OpenRemote(node.address() + "/plain");
      OPAQ_CHECK_OK(remote_source.status());
      EXPECT_NE(remote_source->remote_compute(), nullptr) << c.Describe();
      EXPECT_EQ(EngineSketchBytes(*remote_source, c, IoMode::kAsync, 2),
                reference)
          << c.Describe() << " Engine/Source remote (wire v2)";
      NodeClientOptions v1_only;
      v1_only.node_compute = false;
      auto remote_v1 =
          Source<Key>::OpenRemote(node.address() + "/plain", v1_only);
      OPAQ_CHECK_OK(remote_v1.status());
      EXPECT_EQ(remote_v1->remote_compute(), nullptr) << c.Describe();
      EXPECT_EQ(EngineSketchBytes(*remote_v1, c, IoMode::kAsync, 2),
                reference)
          << c.Describe() << " Engine/Source remote (forced v1)";
      // Compressed export, compute disabled: the engine must fall back to
      // STREAMING the dataset as wire-v4 packed extents, decode them
      // client side, and still leave the reference bytes — with the
      // unpack accounting proving the packed path actually ran.
      NodeClientOptions stream_only;
      stream_only.node_compute = false;
      auto remote_packed = Source<Key>::OpenRemote(
          node.address() + "/extent", stream_only);
      OPAQ_CHECK_OK(remote_packed.status());
      EXPECT_EQ(remote_packed->remote_compute(), nullptr) << c.Describe();
      ASSERT_NE(remote_packed->pack_stats(), nullptr) << c.Describe();
      EXPECT_EQ(EngineSketchBytes(*remote_packed, c, IoMode::kAsync, 2),
                reference)
          << c.Describe() << " Engine/Source remote packed extents";
      EXPECT_GT(remote_packed->pack_stats()->Snapshot().extents, 0u)
          << c.Describe() << " extent stream did not actually run";

      // Live-dataset backend: the same logical data appended as several
      // segments — each a whole number of runs except the last, so the
      // per-segment run grid equals flat chunking — must leave the exact
      // reference bytes, through the raw reader and the facade Source.
      auto tmp = TempDir::Make("opaq-conformance-live");
      OPAQ_CHECK_OK(tmp.status());
      const std::string live_dir = tmp->FilePath("live");
      {
        auto live = LiveDataset<Key>::Create(live_dir);
        OPAQ_CHECK_OK(live.status());
        const uint64_t plan[] = {2 * c.run_size, c.run_size, 3 * c.run_size};
        size_t pos = 0, i = 0;
        while (pos < data.size()) {
          const size_t take =
              std::min<size_t>(plan[i++ % 3], data.size() - pos);
          OPAQ_CHECK_OK(live->Append(std::vector<Key>(
              data.begin() + static_cast<ptrdiff_t>(pos),
              data.begin() + static_cast<ptrdiff_t>(pos + take))));
          pos += take;
        }
      }
      auto live_reader = LiveDatasetReader<Key>::Open(live_dir);
      OPAQ_CHECK_OK(live_reader.status());
      EXPECT_EQ(SketchBytes(*live_reader, c, IoMode::kSync, 2), reference)
          << c.Describe() << " live sync";
      EXPECT_EQ(SketchBytes(*live_reader, c, IoMode::kAsync, 2), reference)
          << c.Describe() << " live async";
      auto live_source = Source<Key>::OpenLive(live_dir);
      OPAQ_CHECK_OK(live_source.status());
      EXPECT_EQ(EngineSketchBytes(*live_source, c, IoMode::kAsync, 2),
                reference)
          << c.Describe() << " Engine/Source live";

      // The incremental-refresh guarantee, conformance-gated: a session
      // built over the head segments that Absorbs a sketch of the appended
      // tail must hold BYTE-IDENTICAL sample-list state to one rebuilt
      // from scratch over the whole dataset.
      if (c.n > 3 * c.run_size) {
        const uint64_t head = 2 * c.run_size;  // = the first segment
        OpaqConfig config;
        config.run_size = c.run_size;
        config.samples_per_run = c.samples_per_run;
        config.seed = c.sketch_seed;
        auto head_session =
            Engine<Key>(config, Source<Key>::FromVector(std::vector<Key>(
                                    data.begin(),
                                    data.begin() +
                                        static_cast<ptrdiff_t>(head))))
                .Build();
        OPAQ_CHECK_OK(head_session.status());
        auto tail = Source<Key>::OpenLive(live_dir, head);
        OPAQ_CHECK_OK(tail.status());
        auto delta = Engine<Key>(config, *tail).Build();
        OPAQ_CHECK_OK(delta.status());
        QuerySession<Key> absorbed = std::move(head_session).value();
        OPAQ_CHECK_OK(absorbed.Absorb(delta->sample_list()));
        EXPECT_EQ(SampleListBytes(absorbed.sample_list()), reference)
            << c.Describe() << " Absorb(tail) vs from-scratch rebuild";
      }
    }
  }
}

TEST(BackendConformanceTest, FixedEdgeCases) {
  const SweepCase kCases[] = {
      // n, m, s, chunk, distribution, data seed, sketch seed
      {1, 64, 8, 16, Distribution::kConstant, 3, 11},    // single element
      {1000, 100, 10, 100, Distribution::kUniform, 4, 12},  // all aligned
      {999, 100, 10, 64, Distribution::kZipf, 5, 13},    // ragged run tail
      {1001, 100, 10, 7, Distribution::kNormal, 6, 14},  // tail of one
      {50, 100, 10, 8, Distribution::kSequential, 7, 15},  // single short run
      {4096, 512, 64, 512, Distribution::kSawtooth, 8, 16},  // chunk == run
      {4096, 512, 64, 4096, Distribution::kUniform, 9, 17},  // chunk > run
      {300, 64, 8, 1, Distribution::kReverseSequential, 10, 18},  // chunk 1
  };
  for (const SweepCase& c : kCases) ExpectAllBackendsAgree(c);
}

TEST(BackendConformanceTest, RandomizedSweep) {
  Xoshiro256 rng(20260729);
  for (int i = 0; i < 12; ++i) {
    SweepCase c;
    c.samples_per_run = uint64_t{1} << (3 + rng.NextBounded(3));  // 8..32
    c.run_size = c.samples_per_run * (1 + rng.NextBounded(40));
    // Mostly ragged tails; with probability 1/4 round down to an aligned n.
    c.n = 1 + rng.NextBounded(30000);
    if (rng.NextBounded(4) == 0 && c.n >= c.run_size) {
      c.n -= c.n % c.run_size;
    }
    c.chunk = 1 + rng.NextBounded(2 * c.run_size);
    const Distribution kDists[] = {
        Distribution::kUniform, Distribution::kZipf, Distribution::kNormal,
        Distribution::kSequential, Distribution::kSawtooth};
    c.distribution = kDists[rng.NextBounded(5)];
    c.data_seed = rng.Next();
    c.sketch_seed = rng.Next();
    SCOPED_TRACE(c.Describe());
    ExpectAllBackendsAgree(c);
  }
}

TEST(BackendConformanceTest, QuantilesAndExactPassAgreeAcrossBackends) {
  // Beyond sketch bytes: the user-visible answers — certified brackets and
  // exact second-pass values — must match across backends, with the second
  // pass itself streaming through each backend (sync and prefetching).
  DatasetSpec spec;
  spec.n = 30000;
  spec.distribution = Distribution::kZipf;
  spec.seed = 99;
  std::vector<Key> data = GenerateDataset<Key>(spec);
  Backends backends(data, 4, 600);  // chunk does not divide the run

  OpaqConfig config;
  config.run_size = 2500;
  config.samples_per_run = 125;
  OpaqSketch<Key> sketch(config);
  ASSERT_TRUE(sketch.Consume(*backends.plain).ok());
  OpaqEstimator<Key> reference = sketch.Finalize();
  auto reference_estimates = reference.EquiQuantiles(10);

  OpaqConfig striped_config = config;
  striped_config.io_mode = IoMode::kAsync;
  striped_config.prefetch_depth = 3;
  OpaqSketch<Key> striped_sketch(striped_config);
  ASSERT_TRUE(striped_sketch.Consume(*backends.striped).ok());
  auto striped_estimates = striped_sketch.Finalize().EquiQuantiles(10);

  ASSERT_EQ(striped_estimates.size(), reference_estimates.size());
  for (size_t i = 0; i < reference_estimates.size(); ++i) {
    EXPECT_EQ(striped_estimates[i].lower, reference_estimates[i].lower);
    EXPECT_EQ(striped_estimates[i].upper, reference_estimates[i].upper);
    EXPECT_EQ(striped_estimates[i].target_rank,
              reference_estimates[i].target_rank);
  }

  ReadOptions sync_options;
  sync_options.run_size = config.run_size;
  auto exact_plain = ExactQuantilesSecondPass(*backends.plain,
                                              reference_estimates,
                                              sync_options);
  ASSERT_TRUE(exact_plain.ok()) << exact_plain.status().ToString();
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    ReadOptions options = sync_options;
    options.io_mode = mode;
    options.prefetch_depth = 2;
    auto exact_striped = ExactQuantilesSecondPass(*backends.striped,
                                                  reference_estimates,
                                                  options);
    ASSERT_TRUE(exact_striped.ok()) << exact_striped.status().ToString();
    EXPECT_EQ(*exact_striped, *exact_plain) << IoModeName(mode);
  }
  // And the overlapped second pass over the plain file agrees too.
  ReadOptions async_options = sync_options;
  async_options.io_mode = IoMode::kAsync;
  auto exact_async = ExactQuantilesSecondPass(*backends.plain,
                                              reference_estimates,
                                              async_options);
  ASSERT_TRUE(exact_async.ok());
  EXPECT_EQ(*exact_async, *exact_plain);

  // Compressed extents: the sketch's brackets AND the §4 exact pass over
  // the packed layout — inline and with decode threads — agree with the
  // plain pipeline.
  OpaqSketch<Key> extent_sketch(striped_config);
  ASSERT_TRUE(extent_sketch.Consume(*backends.extent).ok());
  auto extent_estimates = extent_sketch.Finalize().EquiQuantiles(10);
  ASSERT_EQ(extent_estimates.size(), reference_estimates.size());
  for (size_t i = 0; i < reference_estimates.size(); ++i) {
    EXPECT_EQ(extent_estimates[i].lower, reference_estimates[i].lower);
    EXPECT_EQ(extent_estimates[i].upper, reference_estimates[i].upper);
  }
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    ReadOptions options = sync_options;
    options.io_mode = mode;
    options.prefetch_depth = 2;
    auto exact_extent = ExactQuantilesSecondPass(*backends.extent,
                                                 reference_estimates,
                                                 options);
    ASSERT_TRUE(exact_extent.ok()) << exact_extent.status().ToString();
    EXPECT_EQ(*exact_extent, *exact_plain) << "extent " << IoModeName(mode);
  }

  // Remote backend: a loopback node serving the striped layout must agree
  // on brackets AND on the exact pass — with the §4 second pass itself
  // streaming over the wire, sync and pipelined.
  NodeServer node;
  node.Export("data", backends.striped_file.get());
  node.Export<Key>("packed", backends.extent_file.get());
  ASSERT_TRUE(node.Start().ok());
  auto remote = RemoteRunProvider<Key>::Connect(node.address() + "/data");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  OpaqSketch<Key> remote_sketch(config);
  ASSERT_TRUE(remote_sketch.Consume(*remote).ok());
  auto remote_estimates = remote_sketch.Finalize().EquiQuantiles(10);
  ASSERT_EQ(remote_estimates.size(), reference_estimates.size());
  for (size_t i = 0; i < reference_estimates.size(); ++i) {
    EXPECT_EQ(remote_estimates[i].lower, reference_estimates[i].lower);
    EXPECT_EQ(remote_estimates[i].upper, reference_estimates[i].upper);
  }
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    ReadOptions options = sync_options;
    options.io_mode = mode;
    options.prefetch_depth = 2;
    auto exact_remote = ExactQuantilesSecondPass(*remote,
                                                 reference_estimates,
                                                 options);
    ASSERT_TRUE(exact_remote.ok()) << exact_remote.status().ToString();
    EXPECT_EQ(*exact_remote, *exact_plain) << "remote " << IoModeName(mode);
  }

  // The §4 exact pass streaming wire-v4 PACKED extents, decoded client
  // side, lands on the same exact values.
  auto remote_packed =
      RemoteExtentProvider<Key>::Connect(node.address() + "/packed");
  ASSERT_TRUE(remote_packed.ok()) << remote_packed.status().ToString();
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    ReadOptions options = sync_options;
    options.io_mode = mode;
    options.prefetch_depth = 2;
    auto exact_packed = ExactQuantilesSecondPass(*remote_packed,
                                                 reference_estimates,
                                                 options);
    ASSERT_TRUE(exact_packed.ok()) << exact_packed.status().ToString();
    EXPECT_EQ(*exact_packed, *exact_plain)
        << "remote packed " << IoModeName(mode);
  }

  // Finally, the facade end to end: an Engine-built QuerySession over the
  // striped source answers the same batch — same brackets, same exact
  // values — as the direct plain-file pipeline above.
  auto session =
      Engine<Key>(striped_config,
                  Source<Key>::FromFile(backends.striped_file.get()))
          .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto batch = session->Query({
      QueryRequest<Key>::EquiQuantiles(10, /*exact=*/true),
  });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const auto& facade_estimates = batch->results[0].estimates;
  ASSERT_EQ(facade_estimates.size(), reference_estimates.size());
  for (size_t i = 0; i < reference_estimates.size(); ++i) {
    EXPECT_EQ(facade_estimates[i].lower, reference_estimates[i].lower);
    EXPECT_EQ(facade_estimates[i].upper, reference_estimates[i].upper);
  }
  EXPECT_EQ(batch->results[0].exact, *exact_plain);

  // And once more with the facade on the WIRE, under BOTH protocol
  // versions: wire v2 (node-side sampling + distributed §4 exact pass) and
  // forced v1 (range streaming) answer the identical batch, exact values
  // included — the wire moves the work OR the data, never the answers.
  NodeClientOptions client_options;
  for (bool node_compute : {true, false}) {
    client_options.node_compute = node_compute;
    auto remote_source =
        Source<Key>::OpenRemote(node.address() + "/data", client_options);
    ASSERT_TRUE(remote_source.ok()) << remote_source.status().ToString();
    EXPECT_EQ(remote_source->remote_compute() != nullptr, node_compute);
    auto remote_session =
        Engine<Key>(striped_config, *remote_source).Build();
    ASSERT_TRUE(remote_session.ok()) << remote_session.status().ToString();
    auto remote_batch = remote_session->Query({
        QueryRequest<Key>::EquiQuantiles(10, /*exact=*/true),
    });
    ASSERT_TRUE(remote_batch.ok()) << remote_batch.status().ToString();
    const auto& wire_estimates = remote_batch->results[0].estimates;
    ASSERT_EQ(wire_estimates.size(), reference_estimates.size());
    for (size_t i = 0; i < reference_estimates.size(); ++i) {
      EXPECT_EQ(wire_estimates[i].lower, reference_estimates[i].lower)
          << "node_compute " << node_compute;
      EXPECT_EQ(wire_estimates[i].upper, reference_estimates[i].upper)
          << "node_compute " << node_compute;
    }
    EXPECT_EQ(remote_batch->results[0].exact, *exact_plain)
        << "node_compute " << node_compute;
  }
}

TEST(BackendConformanceTest, SampleWidthNeverChangesTheSketch) {
  // Runs long enough for the striped distribution step (at least
  // 4 x 64Ki elements) through the plain-async, extent and striped
  // backends: sampling each run with 1 worker and with 4 leaves the same
  // bytes, and so does Engine::Build, which derives its own width (every
  // core, for one source or several). The ragged tail run is below the
  // striping threshold and takes one worker either way.
  constexpr uint64_t kRun = uint64_t{1} << 18;
  DatasetSpec spec;
  spec.n = 3 * kRun + 12345;
  spec.distribution = Distribution::kZipf;
  spec.seed = 77;
  const std::vector<Key> data = GenerateDataset<Key>(spec);
  Backends backends(data, 2, 50000);

  OpaqConfig config;
  config.run_size = kRun;
  config.samples_per_run = 256;
  config.io_mode = IoMode::kAsync;
  auto width_bytes = [&](const RunProvider<Key>& provider, size_t workers) {
    OpaqSketch<Key> sketch(config, workers);
    OPAQ_CHECK_OK(sketch.Consume(provider));
    return SampleListBytes(sketch.FinalizeSampleList());
  };
  const std::vector<uint8_t> reference = width_bytes(*backends.plain, 1);

  auto extent_source = Source<Key>::FromFile(backends.extent_file.get());
  OPAQ_CHECK_OK(extent_source.status());
  const std::pair<const char*, Source<Key>> sources[] = {
      {"plain-async", Source<Key>::FromFile(backends.plain_file.get())},
      {"extent", *extent_source},
      {"striped", Source<Key>::FromFile(backends.striped_file.get())},
  };
  for (const auto& [name, source] : sources) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      EXPECT_EQ(width_bytes(source.provider(), workers), reference)
          << name << " workers=" << workers;
    }
    Engine<Key> engine(config, source);
    auto session = engine.Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(engine.stats().sample_workers, WorkerPool::HardwareWidth());
    EXPECT_EQ(SampleListBytes(session->sample_list()), reference)
        << name << " Engine::Build";
  }

  // Several shards sample side by side, each at full width on the shared
  // pool, and still equal the shard-order merge of width-1 shard sketches.
  const std::vector<Source<Key>> shards = {sources[0].second,
                                           sources[2].second};
  Engine<Key> sharded(config, shards);
  auto sharded_session = sharded.Build();
  ASSERT_TRUE(sharded_session.ok()) << sharded_session.status().ToString();
  EXPECT_EQ(sharded.stats().sample_workers, WorkerPool::HardwareWidth());
  SampleList<Key> merged;
  for (size_t rank = 0; rank < shards.size(); ++rank) {
    OpaqSketch<Key> sketch(config, 1);
    OPAQ_CHECK_OK(sketch.Consume(shards[rank].provider()));
    SampleList<Key> list = sketch.FinalizeSampleList();
    if (rank == 0) {
      merged = std::move(list);
      continue;
    }
    auto combined = SampleList<Key>::Merge(merged, list);
    ASSERT_TRUE(combined.ok()) << combined.status().ToString();
    merged = std::move(combined).value();
  }
  EXPECT_EQ(SampleListBytes(sharded_session->sample_list()),
            SampleListBytes(merged));
}

TEST(BackendConformanceTest, ConcurrentSketchesShareThePool) {
  // Two sketches sample 2^20-element runs at the same time, both striping
  // across every worker of the one shared pool. Neither may wait on the
  // other, and both must land on sort-then-pick samples.
  constexpr uint64_t kRun = uint64_t{1} << 20;
  OpaqConfig config;
  config.run_size = kRun;
  config.samples_per_run = 1024;
  std::vector<Key> datasets[2];
  std::vector<uint8_t> expected[2];
  for (int i = 0; i < 2; ++i) {
    DatasetSpec spec;
    spec.n = 2 * kRun;
    spec.distribution = i == 0 ? Distribution::kUniform : Distribution::kZipf;
    spec.seed = 900 + i;
    datasets[i] = GenerateDataset<Key>(spec);
    SampleListBuilder<Key> builder(config.subrun_size());
    for (uint64_t first = 0; first < spec.n; first += kRun) {
      std::vector<Key> run(datasets[i].begin() + first,
                           datasets[i].begin() + first + kRun);
      builder.AddRunSamples(
          RegularSamplesBySorting(run.data(), run.size(), config.subrun_size()),
          kRun);
    }
    expected[i] = SampleListBytes(builder.Finalize());
  }
  std::vector<uint8_t> got[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      OpaqSketch<Key> sketch(config, 4);
      VectorRunSource<Key> runs(&datasets[i], kRun);
      OPAQ_CHECK_OK(sketch.ConsumeRuns(&runs));
      got[i] = SampleListBytes(sketch.FinalizeSampleList());
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(got[0], expected[0]);
  EXPECT_EQ(got[1], expected[1]);
}

TEST(BackendConformanceTest, ParallelHarnessAgreesOnStripedShards) {
  // The parallel sample phase over striped per-rank shards must answer
  // exactly like the plain-file run on the same logical shards.
  const int p = 3;
  std::vector<std::unique_ptr<Backends>> ranks;
  std::vector<const RunProvider<Key>*> plain_shards, striped_shards;
  for (int r = 0; r < p; ++r) {
    DatasetSpec spec;
    spec.n = 15000 + 777 * r;  // ragged everywhere
    spec.distribution = r % 2 ? Distribution::kZipf : Distribution::kUniform;
    spec.seed = 500 + r;
    ranks.push_back(std::make_unique<Backends>(GenerateDataset<Key>(spec),
                                               2 + r % 2, 333));
    plain_shards.push_back(ranks.back()->plain.get());
    striped_shards.push_back(ranks.back()->striped.get());
  }

  auto run = [&](const std::vector<const RunProvider<Key>*>& shards,
                 IoMode mode) {
    Cluster::Options cluster_options;
    cluster_options.num_processors = p;
    Cluster cluster(cluster_options);
    ParallelOpaqOptions options;
    options.config.run_size = 2048;
    options.config.samples_per_run = 128;
    options.config.io_mode = mode;
    options.config.prefetch_depth = 2;
    auto result = RunParallelOpaq(cluster, shards, options);
    OPAQ_CHECK_OK(result.status());
    return std::move(result).value();
  };

  ParallelOpaqResult<Key> reference = run(plain_shards, IoMode::kSync);
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    ParallelOpaqResult<Key> striped = run(striped_shards, mode);
    ASSERT_EQ(striped.estimates.size(), reference.estimates.size());
    for (size_t i = 0; i < reference.estimates.size(); ++i) {
      EXPECT_EQ(striped.estimates[i].lower, reference.estimates[i].lower);
      EXPECT_EQ(striped.estimates[i].upper, reference.estimates[i].upper);
    }
    EXPECT_EQ(striped.global_accounting.num_samples,
              reference.global_accounting.num_samples);
    EXPECT_EQ(striped.global_accounting.total_elements,
              reference.global_accounting.total_elements);
  }
}

}  // namespace
}  // namespace opaq
