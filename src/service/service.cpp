#include "service/service.h"

#include <atomic>
#include <cstdio>
#include <new>
#include <stdexcept>
#include <thread>

#include "encoders/restart.h"
#include "eval/constraint_eval.h"
#include "fault/fault.h"
#include "persist/codec.h"
#include "obs/obs.h"
#include "obs/tracer.h"

namespace picola {

namespace {

int default_threads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 4;
}

unsigned long long count(const obs::Counter& c) { return c.value(); }
double ns_to_ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

/// Shared state of one computing job: each backend-plan task writes its
/// own slot, the last one to decrement `remaining` reduces and fulfils
/// the promise.  Tasks never wait on each other, so a saturated pool
/// cannot deadlock.
struct EncodingService::InFlight {
  CanonicalJob job;
  std::promise<JobResult> promise;
  std::shared_future<JobResult> future;
  std::vector<portfolio::BackendTask> plan;
  std::vector<portfolio::BackendOutcome> outcomes;
  std::atomic<int> remaining{0};
  std::mutex error_mu;
  std::exception_ptr error;
  uint64_t start_ns = 0;  ///< obs::now_ns() at submission
  /// When the first slot was dequeued by a worker (0 until then) — the
  /// job-level queue-wait stamp behind JobResult::queue_wait_ms.
  std::atomic<uint64_t> first_dequeue_ns{0};
  /// Wire-propagated correlation id (0 = none), stamped onto every span
  /// the slots record via obs::ScopedTraceId.
  uint64_t trace_id = 0;
  /// The first submitter's cancel token (canonicalize strips it from
  /// `job`); re-attached to every restart's options.
  std::shared_ptr<const CancelToken> cancel;
  /// Completion callbacks (submitter's + joiners'), guarded by the
  /// service mutex; moved out when the pending entry is erased.
  std::vector<DoneCallback> callbacks;
};

EncodingService::EncodingService(const ServiceOptions& options)
    : pool_(default_threads(options.num_threads), options.max_queue,
            &registry_),
      cache_(options.cache_capacity, options.cache_shards, &registry_),
      jobs_submitted_(registry_.counter("service/jobs_submitted")),
      jobs_completed_(registry_.counter("service/jobs_completed")),
      cache_hits_(registry_.counter("service/cache_hits")),
      inflight_joins_(registry_.counter("service/inflight_joins")),
      cache_misses_(registry_.counter("service/cache_misses")),
      restart_tasks_(registry_.counter("service/restart_tasks")),
      job_wall_ns_(registry_.histogram("service/job")),
      backend_picola_ns_(registry_.histogram("portfolio/picola")),
      backend_sat_ns_(registry_.histogram("portfolio/sat")),
      backend_anneal_ns_(registry_.histogram("portfolio/anneal")),
      wins_picola_(registry_.counter("service/backend_picola")),
      wins_sat_(registry_.counter("service/backend_sat")),
      wins_anneal_(registry_.counter("service/backend_anneal")),
      sat_conflicts_(registry_.counter("sat/conflicts")),
      sat_propagations_(registry_.counter("sat/propagations")),
      sat_decisions_(registry_.counter("sat/decisions")),
      sat_solver_calls_(registry_.counter("sat/solver_calls")),
      uptime_seconds_(registry_.gauge("service/uptime_seconds")),
      cache_entries_(registry_.gauge("cache/entries")),
      start_ns_(obs::now_ns()) {
  if (!options.cache_dir.empty()) {
    persist::StoreOptions so;
    so.dir = options.cache_dir;
    so.snapshot_interval_s = options.snapshot_interval_s;
    store_ = std::make_unique<persist::CacheStore>(so, &registry_);
    // Recover before any traffic; throws on corruption (a service must
    // refuse to start on a cache dir it cannot trust).
    store_->load(&cache_);
    // Journal every mutation from here on.
    cache_.set_listener(store_.get());
  }
}

EncodingService::~EncodingService() {
  // Drain and join before any other member is destroyed: restart tasks
  // reference the cache and the service mutex.
  pool_.shutdown();
  if (store_) {
    // Workers are gone: detach the journal hook and write the shutdown
    // snapshot, so a clean restart is fully warm regardless of interval.
    cache_.set_listener(nullptr);
    store_->snapshot(cache_);
  }
}

void EncodingService::maybe_snapshot() {
  if (!store_ || !store_->due()) return;
  bool expected = false;
  if (!snapshot_inflight_.compare_exchange_strong(expected, true)) return;
  store_->snapshot(cache_);
  snapshot_inflight_.store(false);
}

bool EncodingService::snapshot_now(std::string* error) {
  if (!store_) return true;
  bool expected = false;
  if (!snapshot_inflight_.compare_exchange_strong(expected, true))
    return true;  // a concurrent snapshot is already running
  bool ok = store_->snapshot(cache_, error);
  snapshot_inflight_.store(false);
  return ok;
}

bool EncodingService::drain_snapshot(std::string* error) {
  if (!store_) return true;
  // A racing periodic snapshot may have started before the final
  // insert landed, so "one is already running" is NOT good enough here
  // — wait it out, then write one that provably covers everything.
  bool expected = false;
  while (!snapshot_inflight_.compare_exchange_strong(expected, true)) {
    expected = false;
    std::this_thread::yield();
  }
  bool ok = store_->snapshot(cache_, error);
  snapshot_inflight_.store(false);
  registry_.counter("persist/drain_snapshots").add(1);
  return ok;
}

bool EncodingService::is_cached(const CanonicalJob& job) {
  auto entry = cache_.find_by_fingerprint(job.fingerprint);
  return entry && entry->first.equivalent(job);
}

std::optional<std::string> EncodingService::peek_record(uint64_t fingerprint) {
  auto entry = cache_.find_by_fingerprint(fingerprint);
  if (!entry) return std::nullopt;
  return persist::encode_record(entry->first, entry->second);
}

void EncodingService::adopt(const CanonicalJob& job, CachedResult result) {
  cache_.insert(job, std::move(result));
}

std::shared_future<JobResult> EncodingService::submit(Job job,
                                                      DoneCallback done) {
  // Captured before canonicalisation strips it from the cacheable form.
  std::shared_ptr<const CancelToken> cancel = job.options.cancel;
  const uint64_t trace_id = job.trace_id;
  CanonicalJob cj = canonicalize(job);
  std::vector<portfolio::BackendTask> plan =
      portfolio::portfolio_plan(cj.portfolio.backend, cj.restarts);
  const int slots = static_cast<int>(plan.size());
  jobs_submitted_.add(1);

  std::shared_ptr<InFlight> fly;
  {
    std::unique_lock<std::mutex> lock(mu_);

    // An equal job already in flight: share its future.
    auto it = pending_.find(cj.fingerprint);
    if (it != pending_.end() && it->second->job.equivalent(cj)) {
      inflight_joins_.add(1);
      if (done) it->second->callbacks.push_back(std::move(done));
      return it->second->future;
    }

    // A finished equal job: answer from the cache.
    std::optional<CachedResult> hit;
    {
      PICOLA_OBS_SPAN(span_lookup, "cache/lookup");
      hit = cache_.lookup(cj);
    }
    if (hit) {
      cache_hits_.add(1);
      jobs_completed_.add(1);
      std::promise<JobResult> ready;
      JobResult r;
      r.picola = std::move(hit->picola);
      r.total_cubes = hit->total_cubes;
      r.backend = hit->backend;
      r.cache_hit = true;
      ready.set_value(std::move(r));
      std::shared_future<JobResult> fut = ready.get_future().share();
      lock.unlock();  // never run a user callback under the service mutex
      if (done) done(fut);
      return fut;
    }

    cache_misses_.add(1);
    restart_tasks_.add(static_cast<uint64_t>(slots));
    fly = std::make_shared<InFlight>();
    fly->job = std::move(cj);
    fly->future = fly->promise.get_future().share();
    fly->plan = std::move(plan);
    fly->outcomes.resize(static_cast<size_t>(slots));
    fly->remaining.store(slots);
    fly->start_ns = obs::now_ns();
    fly->trace_id = trace_id;
    fly->cancel = std::move(cancel);
    if (done) fly->callbacks.push_back(std::move(done));
    // emplace, not operator[]: when a different job collides on the
    // fingerprint, the earlier entry stays (its finish erases by identity).
    pending_.emplace(fly->job.fingerprint, fly);
  }

  for (int r = 0; r < slots; ++r) {
    auto run_slot = [this, fly, r]() {
      // The request's trace id covers the whole slot including the
      // finish_job reduction below, so service/restart_task,
      // portfolio/*, picola/* and service/job spans all correlate.
      obs::ScopedTraceId trace_scope(fly->trace_id);
      uint64_t dequeued_ns = obs::now_ns();
      uint64_t expected = 0;
      fly->first_dequeue_ns.compare_exchange_strong(
          expected, dequeued_ns, std::memory_order_relaxed);
      try {
        PICOLA_OBS_SPAN(span_task, "service/restart_task");
        {
          fault::Action fa = PICOLA_FAULT_POINT("service/restart_task");
          fault::apply_delay(fa);
          if (fa.kind == fault::Kind::kThrow)
            throw std::runtime_error("injected: service/restart_task");
        }
        if (PICOLA_FAULT_POINT("service/job_alloc").kind ==
            fault::Kind::kThrow)
          throw std::bad_alloc();
        const portfolio::BackendTask task = fly->plan[static_cast<size_t>(r)];
        uint64_t slot_start_ns = obs::now_ns();
        portfolio::BackendOutcome outcome = portfolio::run_backend_task(
            fly->job.set, fly->job.options, fly->job.portfolio, task,
            fly->cancel);
        backend_histogram(task.kind).record(obs::now_ns() - slot_start_ns);
        if (task.kind == portfolio::BackendKind::kSat) {
          sat_conflicts_.add(
              static_cast<uint64_t>(outcome.sat_stats.conflicts));
          sat_propagations_.add(
              static_cast<uint64_t>(outcome.sat_stats.propagations));
          sat_decisions_.add(
              static_cast<uint64_t>(outcome.sat_stats.decisions));
          sat_solver_calls_.add(
              static_cast<uint64_t>(outcome.sat_solver_calls));
        }
        fly->outcomes[static_cast<size_t>(r)] = std::move(outcome);
      } catch (...) {
        std::lock_guard<std::mutex> lock(fly->error_mu);
        if (!fly->error) fly->error = std::current_exception();
      }
      if (fly->remaining.fetch_sub(1) == 1) finish_job(fly);
    };
    try {
      pool_.post(run_slot);
    } catch (...) {
      // The pool is shutting down: account for every task not posted.
      {
        std::lock_guard<std::mutex> lock(fly->error_mu);
        if (!fly->error) fly->error = std::current_exception();
      }
      if (fly->remaining.fetch_sub(slots - r) == slots - r)
        finish_job(fly);
      break;
    }
  }
  return fly->future;
}

std::vector<std::shared_future<JobResult>> EncodingService::submit_batch(
    std::vector<Job> jobs) {
  std::vector<std::shared_future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (Job& j : jobs) futures.push_back(submit(std::move(j)));
  return futures;
}

void EncodingService::finish_job(const std::shared_ptr<InFlight>& fly) {
  const uint64_t dur_ns = obs::now_ns() - fly->start_ns;
  JobResult out;
  if (!fly->error) {
    // Deterministic reduction — lowest (cost, plan index), identical to
    // sequential picola_encode_best / portfolio_encode.
    int winner = portfolio::reduce_outcomes(fly->outcomes);
    if (winner < 0) {
      // Every slot degraded (e.g. the sat backend alone proving the
      // requested length infeasible): the job fails, and is not cached.
      std::string why = "no backend produced an encoding";
      for (const portfolio::BackendOutcome& o : fly->outcomes)
        if (!o.error.empty()) {
          why += ": " + o.error;
          break;
        }
      fly->error = std::make_exception_ptr(std::runtime_error(why));
    } else {
      portfolio::BackendOutcome& best =
          fly->outcomes[static_cast<size_t>(winner)];
      out.picola = std::move(best.result);
      out.total_cubes = best.total_cubes;
      out.backend = best.backend;
      out.wall_ms = static_cast<double>(dur_ns) / 1e6;
      uint64_t first_deq =
          fly->first_dequeue_ns.load(std::memory_order_relaxed);
      if (first_deq > fly->start_ns)
        out.queue_wait_ms =
            static_cast<double>(first_deq - fly->start_ns) / 1e6;
      switch (out.backend) {
        case portfolio::BackendKind::kPicola: wins_picola_.add(1); break;
        case portfolio::BackendKind::kSat: wins_sat_.add(1); break;
        case portfolio::BackendKind::kAnneal: wins_anneal_.add(1); break;
        case portfolio::BackendKind::kPortfolio: break;  // not a slot kind
      }
      CachedResult memo;
      memo.picola = out.picola;
      memo.total_cubes = out.total_cubes;
      memo.backend = out.backend;
      cache_.insert(fly->job, std::move(memo));
      maybe_snapshot();  // periodic durability, on the completing worker
    }
  }
  // Bookkeeping strictly before fulfilling the promise: a client that has
  // observed get() returning must find the result in the cache (not a
  // stale pending entry) when it resubmits the same job.  The callbacks
  // are moved out under the same lock as the pending erase, so a joiner
  // either finds the pending entry (and its callback lands here) or finds
  // the cached result (and runs inline) — never neither.
  std::vector<DoneCallback> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(fly->job.fingerprint);
    if (it != pending_.end() && it->second == fly) pending_.erase(it);
    callbacks.swap(fly->callbacks);
  }
  jobs_completed_.add(1);
  job_wall_ns_.record(dur_ns);
  PICOLA_OBS_RECORD_SPAN("service/job", fly->start_ns, dur_ns);
  cv_done_.notify_all();
  if (fly->error)
    fly->promise.set_exception(fly->error);
  else
    fly->promise.set_value(std::move(out));
  run_callbacks(callbacks, fly->future);
}

void EncodingService::run_callbacks(
    std::vector<DoneCallback>& callbacks,
    const std::shared_future<JobResult>& future) {
  for (DoneCallback& cb : callbacks) cb(future);
}

obs::Histogram& EncodingService::backend_histogram(
    portfolio::BackendKind kind) {
  switch (kind) {
    case portfolio::BackendKind::kSat: return backend_sat_ns_;
    case portfolio::BackendKind::kAnneal: return backend_anneal_ns_;
    default: return backend_picola_ns_;
  }
}

void EncodingService::refresh_gauges() const {
  uint64_t now = obs::now_ns();  // fake test clocks may lag start_ns_
  uint64_t up = now > start_ns_ ? now - start_ns_ : 0;
  uptime_seconds_.set(static_cast<int64_t>(up / 1'000'000'000ULL));
  cache_entries_.set(static_cast<int64_t>(cache_.size()));
  if (store_) store_->refresh_gauges();
}

void EncodingService::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this]() { return pending_.empty(); });
}

std::string EncodingService::stats_line() const {
  refresh_gauges();
  const obs::Histogram::Snapshot jobs = job_wall_ns_.snapshot();
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "jobs %llu/%llu, cache %llu hit / %llu miss / %llu joined "
                "/ %ld evicted, %llu restart tasks, "
                "queue hwm %lld, %.1f ms total (max %.1f)",
                count(jobs_completed_), count(jobs_submitted_),
                count(cache_hits_), count(cache_misses_),
                count(inflight_joins_), cache_.stats().evictions,
                count(restart_tasks_),
                static_cast<long long>(
                    registry_.gauge_value("pool/queue_depth_hwm")),
                ns_to_ms(jobs.sum), ns_to_ms(jobs.max));
  return buf;
}

std::string EncodingService::stats_json() const {
  refresh_gauges();
  const obs::Histogram::Snapshot jobs = job_wall_ns_.snapshot();
  char buf[448];
  std::snprintf(
      buf, sizeof buf,
      "{\"jobs_submitted\":%llu,\"jobs_completed\":%llu,"
      "\"cache_hits\":%llu,\"inflight_joins\":%llu,\"cache_misses\":%llu,"
      "\"cache_evictions\":%ld,\"restart_tasks\":%llu,"
      "\"queue_high_water\":%lld,\"total_job_ms\":%.3f,\"max_job_ms\":%.3f}",
      count(jobs_submitted_), count(jobs_completed_), count(cache_hits_),
      count(inflight_joins_), count(cache_misses_), cache_.stats().evictions,
      count(restart_tasks_),
      static_cast<long long>(registry_.gauge_value("pool/queue_depth_hwm")),
      ns_to_ms(jobs.sum), ns_to_ms(jobs.max));
  return buf;
}

}  // namespace picola
