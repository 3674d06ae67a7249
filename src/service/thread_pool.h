#pragma once
// Fixed-size thread pool with an unbounded work queue and graceful
// shutdown.
//
// `post()` enqueues a task and never blocks (the network server's
// admission control bounds work before it reaches the pool); `submit()`
// wraps the task in a std::future so return values and exceptions
// propagate to the caller.  `shutdown()` (and the destructor)
// drains every queued task before joining the workers; tasks posted after
// shutdown began are rejected with std::runtime_error.  An exception
// escaping a raw post()ed task is swallowed by the worker (counted as
// pool/tasks_failed when metrics are attached) instead of terminating
// the process.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace picola {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (minimum 1).  When `metrics` is given,
  /// the pool keeps
  /// pool/tasks_posted and pool/tasks_executed counters, the live
  /// pool/queue_depth and pool/active_threads gauges, the
  /// pool/queue_depth_hwm high-water gauge, and the pool/queue_wait
  /// histogram (enqueue->dequeue nanoseconds per task — the contention
  /// signal behind the scaling plateau, see docs/OBSERVABILITY.md) in it
  /// (the registry must outlive the pool).
  explicit ThreadPool(int num_threads,
                      obs::MetricsRegistry* metrics = nullptr);

  /// Drains the queue and joins (graceful shutdown).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task.  Throws std::runtime_error once shutdown has begun.
  void post(std::function<void()> task);

  /// Enqueue a callable and receive its result (or exception) through a
  /// future.  A throwing body is counted in pool/task_exceptions on its
  /// way into the future (the packaged_task absorbs it before the worker
  /// could see it).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<F>(f)]() mutable -> R {
          try {
            return fn();
          } catch (...) {
            if (task_exceptions_) task_exceptions_->add(1);
            throw;
          }
        });
    std::future<R> fut = task->get_future();
    post([task]() { (*task)(); });
    return fut;
  }

  /// Finish every queued task, then join the workers.  Idempotent.
  void shutdown();

  /// Block until the queue is empty and no task is executing.  The pool
  /// stays usable afterwards.
  void wait_idle();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  struct Queued {
    uint64_t enqueue_ns = 0;  ///< stamped only when metrics are attached
    std::function<void()> fn;
  };

  std::mutex mu_;
  std::condition_variable cv_task_;  ///< workers wait for work
  std::condition_variable cv_idle_;  ///< wait_idle() waiters
  std::deque<Queued> queue_;
  std::vector<std::thread> workers_;
  int executing_ = 0;
  bool shutting_down_ = false;
  obs::Counter* tasks_posted_ = nullptr;    ///< optional, see constructor
  obs::Counter* tasks_executed_ = nullptr;
  obs::Counter* tasks_failed_ = nullptr;  ///< raw post()ed tasks that threw
  obs::Counter* task_exceptions_ = nullptr;  ///< every task body that threw
  obs::Gauge* queue_depth_ = nullptr;        ///< live waiting-task count
  obs::Gauge* queue_depth_hwm_ = nullptr;
  obs::Gauge* active_threads_ = nullptr;  ///< workers inside a task body
  obs::Histogram* queue_wait_ns_ = nullptr;  ///< enqueue->dequeue latency
};

}  // namespace picola
