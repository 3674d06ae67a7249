#pragma once
// EncodingService — the concurrent batch-encoding façade shared by the
// `picola batch` / `picola serve` front-ends and the throughput bench.
//
// A submitted Job is canonicalised (job.h) and answered from the sharded
// ResultCache when an equal job was already solved; otherwise its backend
// plan (portfolio/backend.h — R picola restarts for the default backend,
// R picola restarts plus one SAT slot for the portfolio, R annealer
// restarts for `--backend anneal`) fans out as
// independent ThreadPool tasks.  The last slot to finish reduces the
// candidates by espresso cube count with deterministic tie-breaking
// (lowest cost, then lowest plan index) — exactly the rule of the
// sequential picola_encode_best and portfolio_encode — so a parallel run
// is bit-identical to a sequential one.  Identical jobs submitted while
// the first is still in flight share its future instead of being
// recomputed.
//
// The service parallelises across jobs *and* within a job: a batch of B
// jobs with R restarts each becomes B*R pool tasks, no task ever blocks
// on another, and there is no nested-wait deadlock by construction.

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "persist/store.h"
#include "service/job.h"
#include "service/result_cache.h"
#include "service/thread_pool.h"

namespace picola {

struct ServiceOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Result-cache capacity (entries) and shard count.
  size_t cache_capacity = 1024;
  int cache_shards = 8;
  /// Bound on the pool's work queue (0 = unbounded); submitters block
  /// when it is full.
  size_t max_queue = 0;
  /// Durable cache directory (persist/store.h).  Empty = persistence
  /// off.  When set, construction recovers the cache from the dir
  /// (throwing std::runtime_error if its contents fail verification),
  /// every insert/eviction is journaled, and destruction writes a final
  /// snapshot — a clean restart starts fully warm.
  std::string cache_dir;
  /// Seconds between periodic background snapshots: > 0 = at most one
  /// per interval, 0 = after every change (test/chaos mode), < 0 = only
  /// the shutdown snapshot.  Ignored when cache_dir is empty.
  int snapshot_interval_s = 300;
};

/// The outcome of one job, delivered through a shared_future.
struct JobResult {
  PicolaResult picola;
  long total_cubes = 0;   ///< espresso-evaluated implementation cubes
  /// Which backend produced the winning encoding (kPicola unless the job
  /// selected another backend or the portfolio).
  portfolio::BackendKind backend = portfolio::BackendKind::kPicola;
  /// Answered without computing: either a completed-result cache hit or
  /// an in-flight join (service/cache_hits and service/inflight_joins
  /// tell the two apart).
  bool cache_hit = false;
  double wall_ms = 0;     ///< submit-to-completion wall time (0 on hits)
  /// Submission-to-first-slot-dequeue latency — how long the job sat in
  /// the pool queue before any backend slot started (0 on hits).  The
  /// server's slow-request log uses it to split wall time into queue wait
  /// vs encode time.
  double queue_wait_ms = 0;
};

class EncodingService {
 public:
  explicit EncodingService(const ServiceOptions& options = {});
  ~EncodingService();  ///< waits for in-flight jobs, then shuts the pool down

  EncodingService(const EncodingService&) = delete;
  EncodingService& operator=(const EncodingService&) = delete;

  /// Invoked exactly once when a job completes (the future it receives is
  /// ready — get() never blocks).  Runs on the worker thread that
  /// finished the job, inline in submit() on a cache hit, or on the
  /// completing thread of the joined twin on an in-flight join; it must
  /// not call back into the service's blocking APIs.
  using DoneCallback = std::function<void(std::shared_future<JobResult>)>;

  /// Submit one job.  The future is ready immediately on a cache hit; a
  /// failure inside the encoder surfaces as an exception from get().
  /// Cancellation: a job whose options.cancel token fires mid-run fails
  /// with CancelledError and is never cached.  `done`, when given, makes
  /// submission fully non-blocking — the event-driven network server
  /// (src/net) relies on it instead of parking a thread on the future.
  std::shared_future<JobResult> submit(Job job, DoneCallback done = nullptr);

  /// Submit many jobs; futures are returned in submission order.
  std::vector<std::shared_future<JobResult>> submit_batch(
      std::vector<Job> jobs);

  /// Block until every submitted job has completed.
  void wait_all();

  /// The service counters as one line ("jobs 2/3, cache 1 hit / ...")
  /// and as a JSON object — the service part of every stats view: stdin
  /// serve's `stats`, batch, the TCP `stats` command, /statusz and serve
  /// --tcp's exit line.  Rendered from metrics() (plus the cache's own
  /// eviction count) after refresh_gauges().
  std::string stats_line() const;
  std::string stats_json() const;

  /// The live per-instance registry, the only store of the service's
  /// counts: service/* counters, pool/* contention metrics, cache/*
  /// shard heat, persist/* store metrics, portfolio/* backend latency
  /// histograms, sat/* solver counters, and the service/job wall-time
  /// histogram (ns).
  const obs::MetricsRegistry& metrics() const { return registry_; }

  /// Bring the point-in-time gauges (service/uptime_seconds,
  /// cache/entries) up to date; call before snapshotting the registry.
  void refresh_gauges() const;

  int num_threads() const { return pool_.num_threads(); }
  const ResultCache& cache() const { return cache_; }

  /// The durable store, or nullptr when persistence is off (/statusz).
  const persist::CacheStore* store() const { return store_.get(); }

  /// Snapshot the cache now if the store says one is due (see
  /// StoreOptions::snapshot_interval_s).  Runs inline on the calling
  /// thread — finish_job invokes it on the completing worker (that IS
  /// the service pool), the network server from its idle sweep; an
  /// atomic guard keeps concurrent callers from stacking snapshots.
  void maybe_snapshot();

  /// Unconditionally snapshot (bench/tests).  No-op without a store.
  bool snapshot_now(std::string* error = nullptr);

  /// Graceful-drain snapshot (net/server.cpp, docs/CLUSTER.md): taken
  /// *before* the final admitted request is answered, so a rolling
  /// restart never replays a journal it could have compacted.  Unlike
  /// snapshot_now() this WAITS for any racing periodic snapshot (which
  /// may predate the final insert) and then snapshots again, and it
  /// bumps the persist/drain_snapshots counter.  No-op without a store.
  bool drain_snapshot(std::string* error = nullptr);

  /// True when an equal job is already memoised.  Side-channel read for
  /// the peer-forwarding pre-check: no recency refresh, no hit/miss
  /// accounting — submit() keeps its own books.
  bool is_cached(const CanonicalJob& job);

  /// The cache entry for `fingerprint` serialised as a persist/codec.h
  /// record, or nullopt — the payload of a `peek` reply (the requester
  /// decodes, re-canonicalises, and deep-compares before trusting it).
  std::optional<std::string> peek_record(uint64_t fingerprint);

  /// Adopt a result fetched from a peer's cache as if computed locally:
  /// journaled like any insert, so it survives a restart and future
  /// submits hit.
  void adopt(const CanonicalJob& job, CachedResult result);

 private:
  struct InFlight;

  void finish_job(const std::shared_ptr<InFlight>& fly);
  static void run_callbacks(std::vector<DoneCallback>& callbacks,
                            const std::shared_future<JobResult>& future);

  // The registry must outlive (so precede) the pool and the counter
  // references below; the store must outlive the cache (which holds it
  // as listener) and die after the pool (whose workers append to it).
  obs::MetricsRegistry registry_;
  std::unique_ptr<persist::CacheStore> store_;
  ThreadPool pool_;
  ResultCache cache_;
  std::atomic<bool> snapshot_inflight_{false};

  obs::Counter& jobs_submitted_;
  obs::Counter& jobs_completed_;
  obs::Counter& cache_hits_;
  obs::Counter& inflight_joins_;
  obs::Counter& cache_misses_;
  obs::Counter& restart_tasks_;
  obs::Histogram& job_wall_ns_;  ///< "service/job" wall time, nanoseconds
  // Per-backend visibility (ISSUE 7): slot latency histograms, winner
  // counters, and the SAT solver's conflict/propagation tallies.
  obs::Histogram& backend_picola_ns_;  ///< "portfolio/picola" slot latency
  obs::Histogram& backend_sat_ns_;     ///< "portfolio/sat"
  obs::Histogram& backend_anneal_ns_;  ///< "portfolio/anneal"
  obs::Counter& wins_picola_;          ///< "service/backend_picola" winners
  obs::Counter& wins_sat_;
  obs::Counter& wins_anneal_;
  obs::Counter& sat_conflicts_;
  obs::Counter& sat_propagations_;
  obs::Counter& sat_decisions_;
  obs::Counter& sat_solver_calls_;
  obs::Gauge& uptime_seconds_;  ///< "service/uptime_seconds"
  obs::Gauge& cache_entries_;   ///< "cache/entries" live occupancy
  uint64_t start_ns_ = 0;       ///< construction time (uptime base)

  obs::Histogram& backend_histogram(portfolio::BackendKind kind);

  mutable std::mutex mu_;
  std::condition_variable cv_done_;
  std::unordered_map<uint64_t, std::shared_ptr<InFlight>> pending_;
};

}  // namespace picola
