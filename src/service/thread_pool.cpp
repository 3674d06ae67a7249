#include "service/thread_pool.h"

#include <algorithm>
#include <stdexcept>

#include "fault/fault.h"

namespace picola {

ThreadPool::ThreadPool(int num_threads, obs::MetricsRegistry* metrics) {
  if (metrics) {
    tasks_posted_ = &metrics->counter("pool/tasks_posted");
    tasks_executed_ = &metrics->counter("pool/tasks_executed");
    tasks_failed_ = &metrics->counter("pool/tasks_failed");
    task_exceptions_ = &metrics->counter("pool/task_exceptions");
    queue_depth_ = &metrics->gauge("pool/queue_depth");
    queue_depth_hwm_ = &metrics->gauge("pool/queue_depth_hwm");
    active_threads_ = &metrics->gauge("pool/active_threads");
    queue_wait_ns_ = &metrics->histogram("pool/queue_wait");
  }
  int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this]() { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_)
      throw std::runtime_error("ThreadPool: post() after shutdown");
    Queued q;
    if (queue_wait_ns_) q.enqueue_ns = obs::now_ns();
    q.fn = std::move(task);
    queue_.push_back(std::move(q));
    if (queue_depth_) queue_depth_->set(static_cast<int64_t>(queue_.size()));
    if (queue_depth_hwm_)
      queue_depth_hwm_->max_of(static_cast<int64_t>(queue_.size()));
  }
  if (tasks_posted_) tasks_posted_->add(1);
  cv_task_.notify_one();
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      // A second caller (e.g. the destructor after an explicit shutdown)
      // must not try to join already-joined threads.
      if (workers_.empty()) return;
    }
    shutting_down_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock,
                [this]() { return queue_.empty() && executing_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    Queued task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock,
                    [this]() { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
      if (queue_depth_) queue_depth_->set(static_cast<int64_t>(queue_.size()));
    }
    if (queue_wait_ns_)
      queue_wait_ns_->record(obs::now_ns() - task.enqueue_ns);
    if (active_threads_) active_threads_->add(1);
    // submit() routes exceptions into the task's future before they reach
    // this frame; an exception escaping a raw post()ed task must not
    // std::terminate the worker (it used to) — swallow and count it.
    try {
      fault::Action fa = PICOLA_FAULT_POINT("pool/task");
      fault::apply_delay(fa);
      task.fn();
      // Injected AFTER the task body so a submit() future is already
      // satisfied: a pool fault may never orphan a waiter.
      if (fa.kind == fault::Kind::kThrow)
        throw std::runtime_error("injected: pool/task");
    } catch (...) {
      if (tasks_failed_) tasks_failed_->add(1);
      if (task_exceptions_) task_exceptions_->add(1);
    }
    if (active_threads_) active_threads_->add(-1);
    if (tasks_executed_) tasks_executed_->add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --executing_;
      if (queue_.empty() && executing_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace picola
