// ThreadPool: bounded queue, graceful shutdown, exception propagation.

#include "service/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace picola {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(pool.submit([i]() { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[static_cast<size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i)
      pool.post([&ran]() {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++ran;
      });
    pool.shutdown();  // must finish every queued task before joining
    EXPECT_EQ(ran.load(), 64);
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.post([&ran]() { ++ran; });
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, PostAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.post([]() {}), std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int {
    throw std::invalid_argument("boom");
  });
  EXPECT_THROW(
      {
        try {
          fut.get();
        } catch (const std::invalid_argument& e) {
          EXPECT_STREQ(e.what(), "boom");
          throw;
        }
      },
      std::invalid_argument);
  // The worker survives the exception.
  EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, BoundedQueueAppliesBackpressure) {
  obs::MetricsRegistry metrics;
  ThreadPool pool(1, /*max_queue=*/2, &metrics);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.post([gate]() { gate.wait(); });  // occupy the single worker
  std::atomic<int> posted{0};
  std::thread producer([&]() {
    for (int i = 0; i < 8; ++i) {
      pool.post([]() {});
      ++posted;
    }
  });
  // The producer must stall at the queue bound while the worker is blocked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(posted.load(), 3);  // 2 queued + 1 in post() about to count
  release.set_value();
  producer.join();
  pool.wait_idle();
  EXPECT_EQ(posted.load(), 8);
  EXPECT_LE(metrics.gauge_value("pool/queue_depth_hwm"), 2);
}

TEST(ThreadPoolTest, WaitIdleWaitsForExecutingTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 40; ++i)
    pool.post([&ran]() {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++ran;
    });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 40);
  // Pool stays usable after wait_idle.
  EXPECT_EQ(pool.submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, TracksQueueHighWater) {
  obs::MetricsRegistry metrics;
  ThreadPool pool(1, 0, &metrics);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.post([gate]() { gate.wait(); });
  for (int i = 0; i < 5; ++i) pool.post([]() {});
  release.set_value();
  pool.wait_idle();
  EXPECT_GE(metrics.gauge_value("pool/queue_depth_hwm"), 5);
}


// ---- regression: shutdown and exception safety (see ISSUE: net PR) ----

TEST(ThreadPoolTest, PostAndSubmitAfterShutdownFailCleanly) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.post([]() {}), std::runtime_error);
  EXPECT_THROW(pool.submit([]() { return 1; }), std::runtime_error);
  // Shutdown is idempotent and the rejections left the pool coherent.
  pool.shutdown();
  EXPECT_THROW(pool.post([]() {}), std::runtime_error);
}

TEST(ThreadPoolTest, ThrowingPostedTaskDoesNotTerminateWorker) {
  obs::MetricsRegistry metrics;
  ThreadPool pool(2, 0, &metrics);
  // A raw post()ed task has no future to carry its exception; the worker
  // must swallow it (and count it) instead of std::terminate-ing.
  for (int i = 0; i < 8; ++i)
    pool.post([]() { throw std::runtime_error("boom"); });
  pool.wait_idle();
  EXPECT_EQ(metrics.counter_value("pool/tasks_failed"), 8u);
  // The workers survived: the pool still runs tasks.
  EXPECT_EQ(pool.submit([]() { return 42; }).get(), 42);
}

TEST(ThreadPoolTest, DestructorDuringInflightThrowingTasksIsSafe) {
  std::atomic<int> started{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 64; ++i)
      pool.post([&started]() {
        ++started;
        throw std::runtime_error("mid-flight failure");
      });
    // Destructor runs here with tasks queued and throwing: it must drain
    // them all and join without terminating.
  }
  EXPECT_EQ(started.load(), 64);
}

TEST(ThreadPoolTest, SubmitExceptionStillPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::invalid_argument("bad"); });
  EXPECT_THROW(fut.get(), std::invalid_argument);
  // ...and is not double-counted as a raw task failure path: the pool
  // remains usable.
  EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ContentionMetricsTrackQueueAndActiveThreads) {
  obs::MetricsRegistry metrics;
  ThreadPool pool(1, 0, &metrics);

  // Park the single worker so posted tasks must wait in the queue.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> entered;
  pool.post([&entered, gate]() {
    entered.set_value();
    gate.wait();
  });
  entered.get_future().wait();
  // The worker is inside the task; two more tasks sit in the queue.
  pool.post([gate]() { gate.wait(); });
  pool.post([gate]() { gate.wait(); });
  EXPECT_EQ(metrics.gauge("pool/active_threads").value(), 1);
  EXPECT_EQ(metrics.gauge("pool/queue_depth").value(), 2);
  EXPECT_GE(metrics.gauge("pool/queue_depth_hwm").value(), 2);

  release.set_value();
  pool.wait_idle();
  // Idle again: the live gauges fall back to zero, the high-water stays.
  EXPECT_EQ(metrics.gauge("pool/active_threads").value(), 0);
  EXPECT_EQ(metrics.gauge("pool/queue_depth").value(), 0);
  EXPECT_GE(metrics.gauge("pool/queue_depth_hwm").value(), 2);
  EXPECT_EQ(metrics.gauge_value("pool/queue_depth_hwm"), 2);  // exact

  // Every executed task recorded one queue-wait sample, and the parked
  // tasks demonstrably waited.
  uint64_t count = 0, max = 0;
  for (const auto& [name, snap] : metrics.histogram_snapshots())
    if (name == "pool/queue_wait") {
      count = snap.count;
      max = snap.max;
    }
  EXPECT_EQ(count, 3u);
  EXPECT_GT(max, 0u);
}

}  // namespace
}  // namespace picola
