// Job canonicalisation / fingerprints and the sharded LRU ResultCache.

#include "service/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

namespace picola {
namespace {

Job make_job(std::vector<std::vector<int>> groups, int num_symbols = 8,
             int restarts = 2) {
  Job j;
  j.set.num_symbols = num_symbols;
  for (auto& g : groups) j.set.add(std::move(g));
  j.restarts = restarts;
  return j;
}

CachedResult make_result(int cubes) {
  CachedResult r;
  r.total_cubes = cubes;
  r.picola.encoding.num_symbols = 4;
  r.picola.encoding.num_bits = 2;
  r.picola.encoding.codes = {0, 1, 2, 3};
  return r;
}

TEST(CanonicalJobTest, PermutedGroupsAndMembersFingerprintEqual) {
  Job a = make_job({{0, 1, 2}, {3, 4}, {2, 5, 6}});
  Job b = make_job({{6, 2, 5}, {4, 3}, {2, 1, 0}});
  CanonicalJob ca = canonicalize(a);
  CanonicalJob cb = canonicalize(b);
  EXPECT_EQ(ca.fingerprint, cb.fingerprint);
  EXPECT_TRUE(ca.equivalent(cb));
}

TEST(CanonicalJobTest, DuplicateGroupsMergeIntoWeight) {
  Job a = make_job({{0, 1}, {1, 0}, {0, 1}});
  Job b;
  b.set.num_symbols = 8;
  b.set.add({0, 1}, 3.0);
  b.restarts = 2;
  EXPECT_EQ(canonicalize(a).fingerprint, canonicalize(b).fingerprint);
}

TEST(CanonicalJobTest, DifferentContentFingerprintsDiffer) {
  CanonicalJob base = canonicalize(make_job({{0, 1, 2}, {3, 4}}));
  EXPECT_NE(base.fingerprint,
            canonicalize(make_job({{0, 1, 2}, {3, 5}})).fingerprint);
  EXPECT_NE(base.fingerprint,
            canonicalize(make_job({{0, 1, 2}, {3, 4}}, 9)).fingerprint);
  EXPECT_NE(base.fingerprint,
            canonicalize(make_job({{0, 1, 2}, {3, 4}}, 8, 3)).fingerprint);
  Job opt = make_job({{0, 1, 2}, {3, 4}});
  opt.options.num_bits = 4;
  EXPECT_NE(base.fingerprint, canonicalize(opt).fingerprint);
  opt = make_job({{0, 1, 2}, {3, 4}});
  opt.options.use_guides = false;
  EXPECT_NE(base.fingerprint, canonicalize(opt).fingerprint);
  opt = make_job({{0, 1, 2}, {3, 4}});
  opt.options.tie_break_seed = 17;
  EXPECT_NE(base.fingerprint, canonicalize(opt).fingerprint);
}

TEST(ResultCacheTest, HitAfterInsert) {
  ResultCache cache(16, 4);
  CanonicalJob j = canonicalize(make_job({{0, 1, 2}}));
  EXPECT_FALSE(cache.lookup(j).has_value());
  cache.insert(j, make_result(5));
  auto hit = cache.lookup(j);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->total_cubes, 5);
  ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCacheTest, PermutedSubmissionHits) {
  ResultCache cache(16);
  cache.insert(canonicalize(make_job({{2, 1, 0}, {5, 3}})), make_result(7));
  auto hit = cache.lookup(canonicalize(make_job({{3, 5}, {0, 1, 2}})));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->total_cubes, 7);
}

TEST(ResultCacheTest, LruEvictionPerShard) {
  ResultCache cache(2, 1);  // single shard, two entries
  CanonicalJob a = canonicalize(make_job({{0, 1}}));
  CanonicalJob b = canonicalize(make_job({{1, 2}}));
  CanonicalJob c = canonicalize(make_job({{2, 3}}));
  cache.insert(a, make_result(1));
  cache.insert(b, make_result(2));
  ASSERT_TRUE(cache.lookup(a).has_value());  // refresh a; b becomes LRU
  cache.insert(c, make_result(3));           // evicts b
  EXPECT_TRUE(cache.lookup(a).has_value());
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_TRUE(cache.lookup(c).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, FingerprintCollisionIsAMissNotAWrongResult) {
  ResultCache cache(8, 1);
  CanonicalJob a = canonicalize(make_job({{0, 1, 2}}));
  CanonicalJob forged = canonicalize(make_job({{4, 5}}));
  forged.fingerprint = a.fingerprint;  // simulate a 64-bit collision
  cache.insert(a, make_result(3));
  EXPECT_FALSE(cache.lookup(forged).has_value());
  EXPECT_EQ(cache.stats().collisions, 1);
  // The colliding insert replaces the entry; the original now misses.
  cache.insert(forged, make_result(9));
  EXPECT_FALSE(cache.lookup(a).has_value());
  auto hit = cache.lookup(forged);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->total_cubes, 9);
}

TEST(ResultCacheTest, ShardsSplitCapacity) {
  ResultCache cache(8, 4);
  EXPECT_EQ(cache.num_shards(), 4);
  // 16 distinct jobs into capacity 8: stays bounded by ~2 per shard.
  for (int i = 0; i < 16; ++i)
    cache.insert(canonicalize(make_job({{i % 7, (i % 7) + 1}}, 32, i + 1)),
                 make_result(i));
  EXPECT_LE(cache.size(), 8u);
}

TEST(ResultCacheTest, CapacityNeverExceedsTheRequest) {
  // Regression: the old per-shard rounding (ceil(capacity / shards))
  // inflated ResultCache(10, 8) to 16 slots.  The quotas must now sum to
  // exactly what was asked for.
  EXPECT_EQ(ResultCache(10, 8).capacity(), 10u);
  EXPECT_EQ(ResultCache(7, 3).capacity(), 7u);
  EXPECT_EQ(ResultCache(1, 8).capacity(), 1u);
  // Surplus shards are not created: each live shard holds >= 1 entry.
  EXPECT_LE(ResultCache(3, 8).num_shards(), 3);

  // And the bound is enforced, not just reported: flood a 10-slot cache
  // with 40 distinct jobs.
  ResultCache cache(10, 8);
  for (int i = 0; i < 40; ++i)
    cache.insert(canonicalize(make_job({{i % 7, (i % 7) + 1}}, 64, i + 1)),
                 make_result(i));
  EXPECT_LE(cache.size(), 10u);
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(ResultCacheTest, EvictionAccountingBalances) {
  // Single shard, capacity 4: inserting k distinct jobs must report
  // exactly k - 4 evictions, and the books must balance —
  // new inserts - evictions == entries (no drops, no refreshes here).
  ResultCache cache(4, 1);
  constexpr int kJobs = 11;
  for (int i = 0; i < kJobs; ++i)
    cache.insert(canonicalize(make_job({{i % 7, (i % 7) + 1}}, 32, i + 1)),
                 make_result(i));
  ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 4u);
  EXPECT_EQ(s.evictions, kJobs - 4);
  EXPECT_EQ(s.insert_drops, 0);
  EXPECT_EQ(kJobs - s.evictions - s.insert_drops,
            static_cast<long>(s.entries));
}

TEST(ResultCacheTest, CollisionReplacementCountsAsEviction) {
  // A colliding insert displaces a live entry exactly like an LRU
  // eviction does; it must be counted as one or the accounting identity
  // (inserts - drops - refreshes - evictions == entries) breaks.
  ResultCache cache(8, 1);
  CanonicalJob a = canonicalize(make_job({{0, 1, 2}}));
  CanonicalJob forged = canonicalize(make_job({{4, 5}}));
  forged.fingerprint = a.fingerprint;
  cache.insert(a, make_result(3));
  EXPECT_EQ(cache.stats().evictions, 0);
  cache.insert(forged, make_result(9));  // displaces a without LRU pressure
  ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 1);
  // Re-inserting the surviving key is a refresh, not an eviction.
  cache.insert(forged, make_result(9));
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 1u);
}


// ---- concurrency: mixed hit/miss/evict traffic on a tiny cache --------

TEST(ResultCacheStressTest, ConcurrentMixedTrafficStaysCoherent) {
  // Small capacity + many threads + more distinct jobs than capacity:
  // every lookup/insert races with evictions of the same shards.
  constexpr size_t kCapacity = 8;
  constexpr int kThreads = 8;
  constexpr int kDistinctJobs = 64;
  constexpr int kOpsPerThread = 2000;
  ResultCache cache(kCapacity, 4);

  // Job i's result carries marker i (total_cubes = 1000 + i): any torn or
  // cross-wired entry surfaces as a marker mismatch.
  std::vector<CanonicalJob> jobs;
  for (int i = 0; i < kDistinctJobs; ++i)
    jobs.push_back(canonicalize(
        make_job({{0, 1, i % 7 + 2}, {i % 5 + 2, 7}}, 16, i + 1)));
  for (int i = 0; i < kDistinctJobs; ++i)
    for (int j = 0; j < i; ++j)
      ASSERT_NE(jobs[size_t(i)].fingerprint, jobs[size_t(j)].fingerprint);

  std::atomic<long> observed_hits{0};
  std::atomic<bool> integrity_ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) * 7919u + 13u);
      for (int op = 0; op < kOpsPerThread; ++op) {
        int i = static_cast<int>(rng() % kDistinctJobs);
        const CanonicalJob& job = jobs[size_t(i)];
        if (auto r = cache.lookup(job)) {
          observed_hits.fetch_add(1, std::memory_order_relaxed);
          if (r->total_cubes != 1000 + i)
            integrity_ok.store(false, std::memory_order_relaxed);
        } else {
          cache.insert(job, make_result(1000 + i));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // No lookup ever returned another job's result.
  EXPECT_TRUE(integrity_ok.load());
  // The cache never grew past its capacity...
  EXPECT_LE(cache.size(), kCapacity);
  // ...yet it worked: with 8 slots over 64 keys there were evictions and
  // still some hits.
  ResultCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(observed_hits.load(), 0);
  // Stats are internally coherent with what the threads observed.
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<long>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.entries, cache.size());
}

TEST(ResultCacheStressTest, ConcurrentReinsertsOfSameKeyKeepOneEntry) {
  ResultCache cache(16, 2);
  const CanonicalJob job = canonicalize(make_job({{0, 1, 2}}, 8, 3));
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        cache.insert(job, make_result(7));
        auto r = cache.lookup(job);
        if (r) {
          EXPECT_EQ(r->total_cubes, 7);
        }
      }
    });
  for (auto& th : threads) th.join();
  auto r = cache.lookup(job);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->total_cubes, 7);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCacheMetricsTest, ShardHeatAndLockWaitAreRecorded) {
  obs::MetricsRegistry metrics;
  ResultCache cache(16, 4, &metrics);
  const CanonicalJob job = canonicalize(make_job({{0, 1, 2}}, 8, 3));
  cache.insert(job, make_result(5));
  ASSERT_TRUE(cache.lookup(job));
  EXPECT_FALSE(cache.lookup(canonicalize(make_job({{3, 4, 5}}, 8, 3))));

  // Every shard operation bumped exactly one shard's op counter, the hit
  // bumped its shard's hit counter, and every op recorded a lock-wait
  // sample (0 ns on an uncontended try_lock) — the counts must agree.
  uint64_t ops = 0, hits = 0;
  for (int i = 0; i < 4; ++i) {
    ops += metrics.counter_value("cache/shard" + std::to_string(i) + "_ops");
    hits +=
        metrics.counter_value("cache/shard" + std::to_string(i) + "_hits");
  }
  EXPECT_EQ(ops, 3u);   // insert + 2 lookups
  EXPECT_EQ(hits, 1u);
  uint64_t lock_waits = 0;
  for (const auto& [name, snap] : metrics.histogram_snapshots())
    if (name == "cache/lock_wait") lock_waits = snap.count;
  EXPECT_EQ(lock_waits, 3u);
}

TEST(ResultCacheMetricsTest, WorksWithoutARegistry) {
  // The metrics argument is optional; the no-registry path must not
  // dereference anything.
  ResultCache cache(8, 2);
  const CanonicalJob job = canonicalize(make_job({{0, 1}}, 8, 2));
  cache.insert(job, make_result(3));
  ASSERT_TRUE(cache.lookup(job));
}

// --- export / recovery API (persist/store.h rides on these) -----------

/// Records every listener event in order.
struct RecordingListener : ResultCache::Listener {
  std::vector<std::string> events;
  void on_insert(const CanonicalJob& job, const CachedResult& result)
      override {
    events.push_back("ins:" + std::to_string(job.fingerprint) + ":" +
                     std::to_string(result.total_cubes));
  }
  void on_evict(uint64_t fingerprint) override {
    events.push_back("evi:" + std::to_string(fingerprint));
  }
};

TEST(ResultCacheExportTest, ListenerSeesInsertsAndEvictionsInOrder) {
  ResultCache cache(2, 1);
  RecordingListener listener;
  cache.set_listener(&listener);
  const CanonicalJob a = canonicalize(make_job({{0, 1}}, 8, 2));
  const CanonicalJob b = canonicalize(make_job({{2, 3}}, 8, 2));
  const CanonicalJob c = canonicalize(make_job({{4, 5}}, 8, 2));
  cache.insert(a, make_result(1));
  cache.insert(b, make_result(2));
  cache.insert(a, make_result(1));  // pure refresh: NOT journaled
  cache.insert(c, make_result(3));  // capacity 2: evicts LRU (b)
  cache.set_listener(nullptr);
  cache.insert(a, make_result(9));  // detached: silent

  std::vector<std::string> want = {
      "ins:" + std::to_string(a.fingerprint) + ":1",
      "ins:" + std::to_string(b.fingerprint) + ":2",
      "evi:" + std::to_string(b.fingerprint),
      "ins:" + std::to_string(c.fingerprint) + ":3",
  };
  EXPECT_EQ(listener.events, want);
}

TEST(ResultCacheExportTest, ForEachExportsMruFirstPerShard) {
  ResultCache cache(8, 1);  // one shard: global recency order
  const CanonicalJob a = canonicalize(make_job({{0, 1}}, 8, 2));
  const CanonicalJob b = canonicalize(make_job({{2, 3}}, 8, 2));
  const CanonicalJob c = canonicalize(make_job({{4, 5}}, 8, 2));
  cache.insert(a, make_result(1));
  cache.insert(b, make_result(2));
  cache.insert(c, make_result(3));
  ASSERT_TRUE(cache.lookup(a));  // promotes a to MRU

  std::vector<long> order;
  cache.for_each([&](const CanonicalJob&, const CachedResult& r) {
    order.push_back(r.total_cubes);
  });
  EXPECT_EQ(order, (std::vector<long>{1, 3, 2}));  // a, c, b
}

TEST(ResultCacheExportTest, LoadInsertRebuildsExportedOrder) {
  // Snapshot replay: for_each streams MRU-first; tail-appending each
  // entry (most_recent = false) must reproduce the original order.
  ResultCache source(8, 1);
  for (int i = 0; i < 4; ++i)
    source.insert(canonicalize(make_job({{i, i + 1}}, 8, 2)),
                  make_result(i));
  ResultCache restored(8, 1);
  source.for_each([&](const CanonicalJob& j, const CachedResult& r) {
    restored.load_insert(j, r, /*most_recent=*/false);
  });
  std::vector<long> want, got;
  source.for_each([&](const CanonicalJob&, const CachedResult& r) {
    want.push_back(r.total_cubes);
  });
  restored.for_each([&](const CanonicalJob&, const CachedResult& r) {
    got.push_back(r.total_cubes);
  });
  EXPECT_EQ(got, want);
}

TEST(ResultCacheExportTest, LoadInsertDoesNotPromoteOrCountStats) {
  ResultCache cache(8, 1);
  const CanonicalJob job = canonicalize(make_job({{0, 1}}, 8, 2));
  cache.load_insert(job, make_result(5), /*most_recent=*/true);
  // No hit/miss/insert accounting on the recovery path.
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.lookup(job);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->total_cubes, 5);
}

TEST(ResultCacheExportTest, LoadInsertMostRecentOverwritesAndPromotes) {
  ResultCache cache(8, 1);
  const CanonicalJob a = canonicalize(make_job({{0, 1}}, 8, 2));
  const CanonicalJob b = canonicalize(make_job({{2, 3}}, 8, 2));
  cache.load_insert(a, make_result(1), false);
  cache.load_insert(b, make_result(2), false);
  // Journal replay of a later insert for `a`: newer value, hot end.
  cache.load_insert(a, make_result(7), true);
  std::vector<long> order;
  cache.for_each([&](const CanonicalJob&, const CachedResult& r) {
    order.push_back(r.total_cubes);
  });
  EXPECT_EQ(order, (std::vector<long>{7, 2}));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheExportTest, LoadEraseRemovesAndIgnoresUnknown) {
  ResultCache cache(8, 2);
  const CanonicalJob job = canonicalize(make_job({{0, 1}}, 8, 2));
  cache.load_insert(job, make_result(1), true);
  cache.load_erase(job.fingerprint);
  EXPECT_EQ(cache.size(), 0u);
  cache.load_erase(job.fingerprint);  // unknown: silently ignored
  cache.load_erase(0xDEAD);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheExportTest, LoadInsertRespectsCapacity) {
  ResultCache cache(2, 1);
  for (int i = 0; i < 4; ++i)
    cache.load_insert(canonicalize(make_job({{i, i + 1}}, 8, 2)),
                      make_result(i), /*most_recent=*/true);
  EXPECT_EQ(cache.size(), 2u);
  // The two most recent survive.
  std::vector<long> order;
  cache.for_each([&](const CanonicalJob&, const CachedResult& r) {
    order.push_back(r.total_cubes);
  });
  EXPECT_EQ(order, (std::vector<long>{3, 2}));
}

}  // namespace
}  // namespace picola
