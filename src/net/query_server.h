#ifndef OPAQ_NET_QUERY_SERVER_H_
#define OPAQ_NET_QUERY_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/data_file.h"
#include "net/frame_server.h"
#include "net/wire_query.h"
#include "opaq/query.h"
#include "util/status.h"

namespace opaq {

/// The transport options (bind address, port, response delay, wire
/// version cap, metrics registry) come from `FrameServerOptions`.
struct QueryServerOptions : FrameServerOptions {
  /// Batching window for exact-flagged requests: how long the pass leader
  /// waits for stragglers before snapshotting the admission queue and
  /// running the shared §4 second pass. 0 (default) = run immediately;
  /// queued concurrent arrivals still coalesce into one pass. Tests raise
  /// it to make the coalescing deterministic.
  double exact_admission_delay_seconds = 0;
};

/// `opaq_queryd`'s engine: sketch once, serve millions. Each named session
/// is built ONCE at registration (the paper's one pass), then every
/// `kQuery` batch is answered off the in-memory sample list — O(1) per
/// bracket, no data I/O — so a single daemon turns one sketching pass into
/// an arbitrary stream of certified quantile answers.
///
/// Exact-flagged requests are admission-controlled per session: concurrent
/// arrivals queue, and ONE leader folds the whole queue into a single
/// shared §4 second pass over the data (the paper's "additional quantiles
/// cost one extra pass", lifted across connections). Per-request answers
/// are independent, so coalescing is invisible in the bytes — the loadgen's
/// conformance gate relies on that.
///
/// `Refresh` rebuilds a session via its registered builder (outside every
/// lock — queries keep being answered from the old epoch) and atomically
/// swaps the new one in; in-flight batches finish against the snapshot
/// they started with. The epoch counter travels in `WireSessionInfo`.
class QueryServer : public FrameServer {
 public:
  explicit QueryServer(QueryServerOptions options = QueryServerOptions());
  ~QueryServer() override;

  /// Registers a session under `name` (before `Start` only) and builds
  /// epoch 1 by running `builder` now — a daemon that cannot build its
  /// sessions should fail at startup, not at first query. The builder is
  /// kept for `Refresh`.
  ///
  /// An optional `refresher` makes refreshes INCREMENTAL: given the
  /// serving session, it returns the next epoch's session (typically by
  /// sketching only newly ingested data and `Absorb`ing it — `opaq_queryd
  /// --watch` live sessions do). `Refresh` prefers it and falls back to
  /// the full `builder` when it fails, so a refresher may simply error on
  /// conditions it cannot handle (e.g. the dataset shrank). Epoch 1 always
  /// comes from the builder.
  template <typename K>
  Status Serve(const std::string& name,
               std::function<Result<QuerySession<K>>()> builder,
               std::function<Result<QuerySession<K>>(const QuerySession<K>&)>
                   refresher = nullptr) {
    OPAQ_CHECK(!started()) << "Serve after Start: the session map is frozen "
                              "once connection threads may read it";
    OPAQ_CHECK(!name.empty()) << "served session needs a name";
    OPAQ_CHECK(builder != nullptr);
    auto session = std::make_unique<TypedSession<K>>();
    session->builder = std::move(builder);
    session->refresher = std::move(refresher);
    session->exact_admission_delay_seconds =
        options_.exact_admission_delay_seconds;
    session->exact_passes = &exact_passes_;
    OPAQ_RETURN_IF_ERROR(session->Rebuild());
    sessions_[name] = std::move(session);
    return Status::OK();
  }

  /// Rebuilds `name`'s session via its builder and swaps it in (epoch + 1).
  /// Safe while serving: the build runs outside every lock, queries keep
  /// answering from the old snapshot, and a failed build leaves the old
  /// epoch serving untouched.
  Status Refresh(const std::string& name);

  /// What `kOpenSession` would disclose about `name` — for tools and tests.
  Result<WireSessionInfo> SessionInfo(const std::string& name) const;

  /// §4 second passes attempted so far (across all sessions). N
  /// concurrent exact-flagged batches coalescing into one pass leave this
  /// at 1 — the coalescing tests' observable. When a combined pass fails
  /// and the round falls back to per-waiter queries, each retry counts
  /// too, so the counter tracks physical passes on every path.
  uint64_t exact_passes() const {
    return exact_passes_.load(std::memory_order_relaxed);
  }

 protected:
  Status ValidateStart() override;
  bool HandleFrame(TcpConnection* conn, const WireFrame& frame) override;
  /// Base `net.*` counters plus `query.exact_passes` and `query.sessions`.
  void PublishMetrics(MetricsRegistry* registry) override;

 private:
  /// Type-erased session slot: the server routes untyped payload bytes to
  /// it; the typed layer underneath decodes, queries, and encodes.
  struct SessionBase {
    virtual ~SessionBase() = default;
    virtual WireSessionInfo Info() const = 0;
    /// Decodes the request records of a validated `kQuery` payload,
    /// answers them, and returns the encoded `kQueryResult` payload.
    virtual Result<std::vector<uint8_t>> Answer(
        const uint8_t* payload, size_t len,
        const WireQueryHeader& header) = 0;
    virtual Status Rebuild() = 0;
  };

  template <typename K>
  struct TypedSession : SessionBase {
    /// One admitted exact-flagged batch waiting for the shared pass.
    struct Waiter {
      std::vector<QueryRequest<K>> requests;
      Result<QueryResults<K>> result = Status::Internal("pass never ran");
      bool done = false;
    };

    std::function<Result<QuerySession<K>>()> builder;
    std::function<Result<QuerySession<K>>(const QuerySession<K>&)> refresher;
    double exact_admission_delay_seconds = 0;
    std::atomic<uint64_t>* exact_passes = nullptr;

    /// Guards the served snapshot + epoch; held only to copy/swap the
    /// shared_ptr, never across a build or a query.
    mutable std::mutex swap_mutex;
    std::shared_ptr<const QuerySession<K>> session;
    uint64_t epoch = 0;

    /// The exact-pass admission queue (leader/waiter).
    std::mutex exact_mutex;
    std::condition_variable exact_cv;
    std::deque<Waiter*> exact_queue;
    bool pass_running = false;

    std::shared_ptr<const QuerySession<K>> Snapshot() const {
      std::lock_guard<std::mutex> lock(swap_mutex);
      return session;
    }

    Status Rebuild() override {
      // Incremental path first: hand the refresher the serving snapshot
      // (outside every lock — queries keep answering from it). Any
      // refresher failure falls back to the full builder, so a refresher
      // can punt on cases it cannot absorb.
      std::shared_ptr<const QuerySession<K>> current;
      {
        std::lock_guard<std::mutex> lock(swap_mutex);
        current = session;
      }
      Result<QuerySession<K>> built = Status::FailedPrecondition("no epoch");
      if (refresher && current != nullptr) {
        built = refresher(*current);
      }
      if (!built.ok()) built = builder();
      if (!built.ok()) return built.status();
      auto fresh = std::make_shared<const QuerySession<K>>(
          std::move(built).value());
      std::lock_guard<std::mutex> lock(swap_mutex);
      session = std::move(fresh);
      ++epoch;
      return Status::OK();
    }

    WireSessionInfo Info() const override {
      WireSessionInfo info;
      std::lock_guard<std::mutex> lock(swap_mutex);
      info.key_type = static_cast<uint32_t>(KeyTraits<K>::kType);
      info.element_size = sizeof(K);
      info.total_elements = session->total_elements();
      info.max_rank_error = session->max_rank_error();
      info.num_samples = session->sample_list().samples().size();
      info.epoch = epoch;
      info.exact_enabled = session->sources().empty() ? 0 : 1;
      return info;
    }

    Result<std::vector<uint8_t>> Answer(
        const uint8_t* payload, size_t len,
        const WireQueryHeader& header) override {
      auto requests = DecodeQueryRequests<K>(payload, len, header);
      if (!requests.ok()) return requests.status();
      bool any_exact = false;
      for (const QueryRequest<K>& request : *requests) {
        any_exact |= request.exact;
      }
      Result<QueryResults<K>> results =
          any_exact ? QueryCoalesced(std::move(*requests))
                    : Snapshot()->Query(
                          {requests->data(), requests->size()});
      if (!results.ok()) return results.status();
      return EncodeQueryResultsPayload(*results);
    }

    /// The admission-controlled path: enqueue, and either become the pass
    /// leader (first in) or wait for a leader to answer. The leader drains
    /// the queue in rounds — every batch queued by the time a round
    /// snapshots shares that round's single §4 pass.
    Result<QueryResults<K>> QueryCoalesced(
        std::vector<QueryRequest<K>> requests) {
      Waiter self;
      self.requests = std::move(requests);
      std::unique_lock<std::mutex> lock(exact_mutex);
      exact_queue.push_back(&self);
      if (pass_running) {
        exact_cv.wait(lock, [&self] { return self.done; });
        return std::move(self.result);
      }
      pass_running = true;
      while (!exact_queue.empty()) {
        if (exact_admission_delay_seconds > 0) {
          // Batching window: let stragglers join this round.
          lock.unlock();
          std::this_thread::sleep_for(std::chrono::duration<double>(
              exact_admission_delay_seconds));
          lock.lock();
        }
        std::vector<Waiter*> round(exact_queue.begin(), exact_queue.end());
        exact_queue.clear();
        lock.unlock();
        std::vector<Result<QueryResults<K>>> answers = RunRound(round);
        lock.lock();
        // Publish under exact_mutex: waiters re-evaluate their predicate
        // (self.done) under this mutex, so writing result/done anywhere
        // else would race with a spurious or previous-round wakeup.
        for (size_t i = 0; i < round.size(); ++i) {
          round[i]->result = std::move(answers[i]);
          round[i]->done = true;
        }
        exact_cv.notify_all();
      }
      pass_running = false;
      return std::move(self.result);
    }

    /// Runs one shared pass for every batch of `round` and returns one
    /// result per waiter, in round order. Requests are answered
    /// independently by QuerySession, so concatenating batches, querying
    /// once, and slicing the answers back apart is byte-identical to
    /// querying each batch alone. Runs with exact_mutex RELEASED — it
    /// must not touch waiter result/done fields; the leader publishes
    /// the returned results under the mutex.
    std::vector<Result<QueryResults<K>>> RunRound(
        const std::vector<Waiter*>& round) {
      std::shared_ptr<const QuerySession<K>> snapshot = Snapshot();
      std::vector<QueryRequest<K>> combined;
      for (const Waiter* waiter : round) {
        combined.insert(combined.end(), waiter->requests.begin(),
                        waiter->requests.end());
      }
      std::vector<Result<QueryResults<K>>> answers;
      answers.reserve(round.size());
      exact_passes->fetch_add(1, std::memory_order_relaxed);
      auto batch = snapshot->Query({combined.data(), combined.size()});
      if (batch.ok()) {
        size_t offset = 0;
        for (const Waiter* waiter : round) {
          QueryResults<K> sliced;
          sliced.total_elements = batch->total_elements;
          sliced.max_rank_error = batch->max_rank_error;
          sliced.results.assign(
              std::make_move_iterator(batch->results.begin() + offset),
              std::make_move_iterator(batch->results.begin() + offset +
                                      waiter->requests.size()));
          offset += waiter->requests.size();
          answers.push_back(std::move(sliced));
        }
        return answers;
      }
      // One batch's bad request (or a failing source) poisoned the
      // combined pass; isolate the guilty by answering each batch alone,
      // so innocent concurrent clients get their answers, just slower.
      // Each retry is its own §4 pass, so each bumps the counter.
      for (const Waiter* waiter : round) {
        exact_passes->fetch_add(1, std::memory_order_relaxed);
        answers.push_back(snapshot->Query(
            {waiter->requests.data(), waiter->requests.size()}));
      }
      return answers;
    }
  };

  QueryServerOptions options_;
  std::map<std::string, std::unique_ptr<SessionBase>> sessions_;
  std::atomic<uint64_t> exact_passes_{0};
};

}  // namespace opaq

#endif  // OPAQ_NET_QUERY_SERVER_H_
