// persist/store.h — the snapshot + journal engine: the recovery matrix
// (empty / snapshot-only / journal-only / both), torn-tail tolerance,
// hard failure on version or checksum damage, a seeded bit-flip fuzz
// proving no corrupt entry is ever loaded, degraded operation under
// injected I/O faults, and the service-level warm-restart round trip.

#include "persist/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "persist/codec.h"
#include "persist/io.h"
#include "service/job.h"
#include "service/result_cache.h"
#include "service/service.h"

namespace picola::persist {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/picola_store_test.XXXXXX";
    const char* p = mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p ? p : "";
  }
  ~TempDir() {
    for (const std::string& name : io::list_dir(path))
      io::unlink_file(path + "/" + name, nullptr);
    rmdir(path.c_str());
  }
};

CanonicalJob make_job(int salt) {
  Job j;
  j.set.num_symbols = 8;
  j.set.add({0, 1, 2});
  j.set.add({salt % 6, (salt + 1) % 6 + 1});
  j.restarts = 2;
  j.options.tie_break_seed = static_cast<uint64_t>(salt);
  return canonicalize(j);
}

CachedResult make_result(int cubes) {
  CachedResult r;
  r.total_cubes = cubes;
  r.picola.encoding.num_symbols = 8;
  r.picola.encoding.num_bits = 3;
  r.picola.encoding.codes = {0, 1, 2, 3, 4, 5, 6, 7};
  return r;
}

StoreOptions opts(const std::string& dir, int interval = -1) {
  StoreOptions o;
  o.dir = dir;
  o.snapshot_interval_s = interval;
  return o;
}

/// Insert `count` distinct entries through a listener-attached cache so
/// every one is journaled, then detach.  Returns fingerprint -> cubes.
std::map<uint64_t, long> journal_entries(CacheStore* store, int count,
                                         int first_salt = 0) {
  ResultCache cache(64, 4);
  store->load(&cache);
  cache.set_listener(store);
  std::map<uint64_t, long> want;
  for (int i = 0; i < count; ++i) {
    CanonicalJob j = make_job(first_salt + i);
    cache.insert(j, make_result(100 + first_salt + i));
    want[j.fingerprint] = 100 + first_salt + i;
  }
  cache.set_listener(nullptr);
  return want;
}

/// Load `dir` into a fresh cache and return fingerprint -> cubes of
/// every recovered entry (via for_each).
std::map<uint64_t, long> recovered_entries(const std::string& dir,
                                           LoadStats* stats = nullptr) {
  CacheStore store(opts(dir));
  ResultCache cache(64, 4);
  LoadStats ls = store.load(&cache);
  if (stats) *stats = ls;
  std::map<uint64_t, long> got;
  cache.for_each([&](const CanonicalJob& j, const CachedResult& r) {
    got[j.fingerprint] = r.total_cubes;
  });
  return got;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string journal_path(const std::string& dir) {
  for (const std::string& name : io::list_dir(dir))
    if (name.rfind("journal-", 0) == 0) return dir + "/" + name;
  return "";
}

// --- recovery matrix --------------------------------------------------

TEST(StoreRecovery, EmptyDirColdStart) {
  TempDir dir;
  LoadStats ls;
  EXPECT_TRUE(recovered_entries(dir.path, &ls).empty());
  EXPECT_EQ(ls.outcome, RecoveryOutcome::kEmpty);
  EXPECT_EQ(ls.snapshot_records, 0u);
  EXPECT_EQ(ls.journal_inserts, 0u);
  EXPECT_FALSE(ls.torn_tail);
}

TEST(StoreRecovery, JournalOnly) {
  TempDir dir;
  std::map<uint64_t, long> want;
  {
    CacheStore store(opts(dir.path));
    want = journal_entries(&store, 4);
  }  // no snapshot: only journal-1.pcj holds the entries
  LoadStats ls;
  EXPECT_EQ(recovered_entries(dir.path, &ls), want);
  EXPECT_EQ(ls.outcome, RecoveryOutcome::kJournalOnly);
  EXPECT_EQ(ls.journal_inserts, 4u);
}

TEST(StoreRecovery, SnapshotOnly) {
  TempDir dir;
  std::map<uint64_t, long> want;
  {
    CacheStore store(opts(dir.path));
    ResultCache cache(64, 4);
    store.load(&cache);
    cache.set_listener(&store);
    for (int i = 0; i < 4; ++i) {
      CanonicalJob j = make_job(i);
      cache.insert(j, make_result(100 + i));
      want[j.fingerprint] = 100 + i;
    }
    cache.set_listener(nullptr);
    std::string err;
    ASSERT_TRUE(store.snapshot(cache, &err)) << err;
  }
  LoadStats ls;
  EXPECT_EQ(recovered_entries(dir.path, &ls), want);
  EXPECT_EQ(ls.outcome, RecoveryOutcome::kSnapshotOnly);
  EXPECT_EQ(ls.snapshot_records, 4u);
  EXPECT_EQ(ls.journal_inserts, 0u);
}

TEST(StoreRecovery, SnapshotPlusJournalTail) {
  TempDir dir;
  std::map<uint64_t, long> want;
  {
    CacheStore store(opts(dir.path));
    ResultCache cache(64, 4);
    store.load(&cache);
    cache.set_listener(&store);
    for (int i = 0; i < 3; ++i) {
      CanonicalJob j = make_job(i);
      cache.insert(j, make_result(100 + i));
      want[j.fingerprint] = 100 + i;
    }
    std::string err;
    ASSERT_TRUE(store.snapshot(cache, &err)) << err;
    for (int i = 3; i < 6; ++i) {  // post-snapshot tail
      CanonicalJob j = make_job(i);
      cache.insert(j, make_result(100 + i));
      want[j.fingerprint] = 100 + i;
    }
    cache.set_listener(nullptr);
  }
  LoadStats ls;
  EXPECT_EQ(recovered_entries(dir.path, &ls), want);
  EXPECT_EQ(ls.outcome, RecoveryOutcome::kBoth);
  EXPECT_EQ(ls.snapshot_records, 3u);
  EXPECT_EQ(ls.journal_inserts, 3u);
}

TEST(StoreRecovery, SnapshotRotatesEpochAndPrunesJournals) {
  TempDir dir;
  CacheStore store(opts(dir.path));
  ResultCache cache(64, 4);
  store.load(&cache);
  cache.set_listener(&store);
  cache.insert(make_job(0), make_result(1));
  const uint64_t before = store.epoch();
  std::string err;
  ASSERT_TRUE(store.snapshot(cache, &err)) << err;
  EXPECT_EQ(store.epoch(), before + 1);
  cache.set_listener(nullptr);
  // The pre-snapshot journal is pruned; snapshot.pcs present; no tmp
  // left behind.
  std::set<std::string> files;
  for (const std::string& name : io::list_dir(dir.path)) files.insert(name);
  EXPECT_TRUE(files.count("snapshot.pcs"));
  EXPECT_FALSE(files.count("snapshot.pcs.tmp"));
  EXPECT_FALSE(
      files.count("journal-" + std::to_string(before) + ".pcj"));
}

TEST(StoreRecovery, EvictionsReplayAsAbsence) {
  TempDir dir;
  {
    CacheStore store(opts(dir.path));
    // Capacity 2 x 1 shard: the third insert evicts the LRU entry, and
    // the journal must record that so replay agrees.
    ResultCache cache(2, 1);
    store.load(&cache);
    cache.set_listener(&store);
    cache.insert(make_job(0), make_result(100));
    cache.insert(make_job(1), make_result(101));
    cache.insert(make_job(2), make_result(102));
    cache.set_listener(nullptr);
  }
  LoadStats ls;
  std::map<uint64_t, long> got = recovered_entries(dir.path, &ls);
  EXPECT_EQ(ls.journal_inserts, 3u);
  EXPECT_EQ(ls.journal_evicts, 1u);
  EXPECT_EQ(got.size(), 2u);
  EXPECT_FALSE(got.count(make_job(0).fingerprint));  // the evicted one
  EXPECT_EQ(got[make_job(1).fingerprint], 101);
  EXPECT_EQ(got[make_job(2).fingerprint], 102);
}

TEST(StoreRecovery, RecoveredEntryAnswersEquivalentJobLookup) {
  TempDir dir;
  {
    CacheStore store(opts(dir.path));
    journal_entries(&store, 1, /*first_salt=*/7);
  }
  CacheStore store(opts(dir.path));
  ResultCache cache(64, 4);
  store.load(&cache);
  auto hit = cache.lookup(make_job(7));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->total_cubes, 107);
  EXPECT_FALSE(cache.lookup(make_job(8)).has_value());
}

// --- torn tails and corruption ----------------------------------------

TEST(StoreRecovery, TornTailIsTruncatedNotFatal) {
  TempDir dir;
  std::map<uint64_t, long> want;
  {
    CacheStore store(opts(dir.path));
    want = journal_entries(&store, 3);
  }
  // A kill -9 mid-append leaves a short final record: chop bytes off the
  // journal and the loader must keep every whole record before the tear.
  std::string jp = journal_path(dir.path);
  ASSERT_FALSE(jp.empty());
  std::string bytes = file_bytes(jp);
  write_bytes(jp, bytes.substr(0, bytes.size() - 5));

  LoadStats ls;
  std::map<uint64_t, long> got = recovered_entries(dir.path, &ls);
  EXPECT_TRUE(ls.torn_tail);
  EXPECT_EQ(ls.journal_inserts, 2u);  // the third record was torn
  EXPECT_EQ(got.size(), 2u);
  for (const auto& [fp, cubes] : got) EXPECT_EQ(want.at(fp), cubes);
}

TEST(StoreRecovery, TornFrameHeaderTolerated) {
  TempDir dir;
  {
    CacheStore store(opts(dir.path));
    journal_entries(&store, 2);
  }
  std::string jp = journal_path(dir.path);
  std::string bytes = file_bytes(jp);
  // Leave 3 bytes of the second record's 8-byte frame header.
  // Frame layout: u32 len + u32 crc + payload.
  size_t first_end = 20;  // journal header
  uint32_t len0 = 0;
  std::memcpy(&len0, bytes.data() + first_end, 4);
  size_t second_at = first_end + 8 + len0;
  write_bytes(jp, bytes.substr(0, second_at + 3));

  LoadStats ls;
  std::map<uint64_t, long> got = recovered_entries(dir.path, &ls);
  EXPECT_TRUE(ls.torn_tail);
  EXPECT_EQ(got.size(), 1u);
}

TEST(StoreRecovery, AppendAfterTornTailTruncatesIt) {
  TempDir dir;
  {
    CacheStore store(opts(dir.path));
    journal_entries(&store, 3);
  }
  std::string jp = journal_path(dir.path);
  std::string bytes = file_bytes(jp);
  write_bytes(jp, bytes.substr(0, bytes.size() - 5));
  {
    // Reopen for appending: the torn bytes must be cut before the new
    // record lands, or the journal is permanently unparsable.
    CacheStore store(opts(dir.path));
    journal_entries(&store, 1, /*first_salt=*/50);
  }
  LoadStats ls;
  std::map<uint64_t, long> got = recovered_entries(dir.path, &ls);
  EXPECT_FALSE(ls.torn_tail);  // the tear was repaired on append
  EXPECT_EQ(got.size(), 3u);   // 2 surviving + 1 appended
  EXPECT_EQ(got.at(make_job(50).fingerprint), 150);
}

TEST(StoreRecovery, MidJournalCorruptionHardFails) {
  TempDir dir;
  {
    CacheStore store(opts(dir.path));
    journal_entries(&store, 3);
  }
  // Flip a payload byte of the FIRST record: full-length record, bad
  // CRC, not at EOF — corruption, never a torn tail.
  std::string jp = journal_path(dir.path);
  std::string bytes = file_bytes(jp);
  bytes[20 + 8 + 4] ^= 0x40;  // header + frame + a few payload bytes in
  write_bytes(jp, bytes);

  CacheStore store(opts(dir.path));
  ResultCache cache(64, 4);
  EXPECT_THROW(store.load(&cache), std::runtime_error);
}

/// Load `dir` and expect a hard failure whose message names both the
/// file's format version and the one this build reads.
void expect_version_refused(const std::string& dir, uint32_t bad_version) {
  CacheStore store(opts(dir));
  ResultCache cache(64, 4);
  try {
    store.load(&cache);
    ADD_FAILURE() << "version " << bad_version << " loaded";
  } catch (const std::runtime_error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("format version " + std::to_string(bad_version)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("reads version " + std::to_string(kFormatVersion)),
              std::string::npos)
        << what;
  }
}

TEST(StoreRecovery, SnapshotVersionBumpHardFails) {
  // Older dirs too: a version-1 dir can hold results this build would
  // not compute (see kFormatVersion).
  for (uint32_t bad_version : {kFormatVersion - 1, kFormatVersion + 1}) {
    TempDir dir;
    {
      CacheStore store(opts(dir.path));
      ResultCache cache(64, 4);
      store.load(&cache);
      cache.set_listener(&store);
      cache.insert(make_job(0), make_result(1));
      cache.set_listener(nullptr);
      std::string err;
      ASSERT_TRUE(store.snapshot(cache, &err)) << err;
    }
    std::string sp = dir.path + "/snapshot.pcs";
    std::string bytes = file_bytes(sp);
    std::memcpy(bytes.data() + 4, &bad_version, 4);  // after "PSNP"
    write_bytes(sp, bytes);
    expect_version_refused(dir.path, bad_version);
  }
}

TEST(StoreRecovery, JournalVersionBumpHardFails) {
  for (uint32_t bad_version : {kFormatVersion - 1, kFormatVersion + 1}) {
    TempDir dir;
    {
      CacheStore store(opts(dir.path));
      journal_entries(&store, 1);
    }
    std::string jp = journal_path(dir.path);
    std::string bytes = file_bytes(jp);
    std::memcpy(bytes.data() + 4, &bad_version, 4);  // after "PJNL"
    write_bytes(jp, bytes);
    expect_version_refused(dir.path, bad_version);
  }
}

TEST(StoreRecovery, SnapshotBitFlipNeverLoadsACorruptEntry) {
  // The fuzz half of the durability contract: flip one bit anywhere in
  // the snapshot; load must either hard-fail or (never here — the file
  // CRC covers every byte) produce only entries byte-identical to the
  // originals.
  TempDir dir;
  std::map<uint64_t, long> want;
  {
    CacheStore store(opts(dir.path));
    ResultCache cache(64, 4);
    store.load(&cache);
    cache.set_listener(&store);
    for (int i = 0; i < 3; ++i) {
      CanonicalJob j = make_job(i);
      cache.insert(j, make_result(100 + i));
      want[j.fingerprint] = 100 + i;
    }
    cache.set_listener(nullptr);
    std::string err;
    ASSERT_TRUE(store.snapshot(cache, &err)) << err;
  }
  std::string sp = dir.path + "/snapshot.pcs";
  const std::string good = file_bytes(sp);
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  for (int trial = 0; trial < 200; ++trial) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    size_t byte = (rng >> 16) % good.size();
    int bit = static_cast<int>((rng >> 8) & 7);
    std::string bad = good;
    bad[byte] ^= static_cast<char>(1 << bit);
    write_bytes(sp, bad);

    CacheStore store(opts(dir.path));
    ResultCache cache(64, 4);
    try {
      store.load(&cache);
      // Load survived: every entry must be one of the originals.
      cache.for_each([&](const CanonicalJob& j, const CachedResult& r) {
        auto it = want.find(j.fingerprint);
        ASSERT_NE(it, want.end())
            << "corrupt entry surfaced (byte " << byte << " bit " << bit
            << ")";
        EXPECT_EQ(r.total_cubes, it->second);
      });
    } catch (const std::runtime_error&) {
      // Hard fail is the expected reaction to damage.
    }
  }
  write_bytes(sp, good);
}

TEST(StoreRecovery, JournalBitFlipNeverLoadsACorruptEntry) {
  // Same fuzz against the journal.  Unlike the snapshot, damage in the
  // final record may legally read as a torn tail (load succeeds with a
  // strict subset) — but every entry that does load must be original.
  TempDir dir;
  std::map<uint64_t, long> want;
  {
    CacheStore store(opts(dir.path));
    want = journal_entries(&store, 3);
  }
  std::string jp = journal_path(dir.path);
  const std::string good = file_bytes(jp);
  uint64_t rng = 0xDEADBEEFCAFEF00Dull;
  for (int trial = 0; trial < 200; ++trial) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    size_t byte = (rng >> 16) % good.size();
    int bit = static_cast<int>((rng >> 8) & 7);
    std::string bad = good;
    bad[byte] ^= static_cast<char>(1 << bit);
    write_bytes(jp, bad);

    CacheStore store(opts(dir.path));
    ResultCache cache(64, 4);
    try {
      store.load(&cache);
      cache.for_each([&](const CanonicalJob& j, const CachedResult& r) {
        auto it = want.find(j.fingerprint);
        ASSERT_NE(it, want.end())
            << "corrupt entry surfaced (byte " << byte << " bit " << bit
            << ")";
        EXPECT_EQ(r.total_cubes, it->second);
      });
    } catch (const std::runtime_error&) {
    }
  }
  write_bytes(jp, good);
}

// --- degraded operation under injected faults -------------------------
// Compiled out with the injection sites themselves: these tests assert
// that injected errors fire, which requires the hooks to exist.
#ifndef PICOLA_FAULT_DISABLED

TEST(StoreFaults, AppendFailureDegradesUntilRotation) {
  TempDir dir;
  CacheStore store(opts(dir.path));
  ResultCache cache(64, 4);
  store.load(&cache);
  cache.set_listener(&store);

  {
    fault::FaultPlan plan(1);
    plan.add({"persist/write", {fault::Kind::kErrno, ENOSPC, 0, 0},
              /*after=*/0, /*every=*/1, /*max_fires=*/1000});
    fault::ScopedPlan scoped(std::move(plan));
    cache.insert(make_job(0), make_result(1));  // append fails, degrades
  }
  // Serving continued: the entry is in memory even though the journal
  // missed it.
  EXPECT_TRUE(cache.lookup(make_job(0)).has_value());

  // Rotation (a snapshot) clears the broken flag; later inserts journal
  // again and survive a restart.
  std::string err;
  ASSERT_TRUE(store.snapshot(cache, &err)) << err;
  cache.insert(make_job(1), make_result(2));
  cache.set_listener(nullptr);

  LoadStats ls;
  std::map<uint64_t, long> got = recovered_entries(dir.path, &ls);
  EXPECT_EQ(got.size(), 2u);  // snapshot caught 0, journal caught 1
  EXPECT_TRUE(got.count(make_job(0).fingerprint));
  EXPECT_TRUE(got.count(make_job(1).fingerprint));
}

TEST(StoreFaults, FailedSnapshotLeavesPreviousStateServable) {
  TempDir dir;
  CacheStore store(opts(dir.path));
  ResultCache cache(64, 4);
  store.load(&cache);
  cache.set_listener(&store);
  cache.insert(make_job(0), make_result(1));
  std::string err;
  ASSERT_TRUE(store.snapshot(cache, &err)) << err;
  cache.insert(make_job(1), make_result(2));

  {
    fault::FaultPlan plan(1);
    plan.add({"persist/rename", {fault::Kind::kErrno, EIO, 0, 0}, 0, 1, 1});
    fault::ScopedPlan scoped(std::move(plan));
    std::string why;
    EXPECT_FALSE(store.snapshot(cache, &why));
    EXPECT_FALSE(why.empty());
  }
  cache.set_listener(nullptr);

  // The old snapshot and the journal chain still reconstruct everything.
  std::map<uint64_t, long> got = recovered_entries(dir.path);
  EXPECT_EQ(got.size(), 2u);
}

TEST(StoreFaults, ShortWritesAreTransparent) {
  TempDir dir;
  std::map<uint64_t, long> want;
  {
    fault::FaultPlan plan(1);
    plan.add({"persist/write", {fault::Kind::kShortIo, 0, 3, 0},
              /*after=*/0, /*every=*/2, /*max_fires=*/1000});
    fault::ScopedPlan scoped(std::move(plan));
    CacheStore store(opts(dir.path));
    want = journal_entries(&store, 3);
  }
  EXPECT_EQ(recovered_entries(dir.path), want);
}

#else  // PICOLA_FAULT_DISABLED

TEST(StoreFaults, InstalledPlansAreInertWhenCompiledOut) {
  // Whole-tree -DPICOLA_FAULT_DISABLED=ON build: the io shim's fault
  // points are compiled out, so even an always-fire plan aimed at every
  // persist site cannot perturb journaling, snapshotting, or recovery.
  fault::FaultPlan plan(1);
  for (const char* point : {"persist/open", "persist/read", "persist/write",
                            "persist/fsync", "persist/rename",
                            "persist/truncate"})
    plan.add({point, {fault::Kind::kErrno, EIO, 0, 0}, 0, 1, 1000000});
  fault::ScopedPlan scoped(std::move(plan));

  TempDir dir;
  std::map<uint64_t, long> want;
  {
    CacheStore store(opts(dir.path));
    ResultCache cache(64, 4);
    store.load(&cache);
    cache.set_listener(&store);
    for (int i = 0; i < 3; ++i) {
      CanonicalJob j = make_job(i);
      cache.insert(j, make_result(100 + i));
      want[j.fingerprint] = 100 + i;
    }
    std::string err;
    EXPECT_TRUE(store.snapshot(cache, &err)) << err;
    cache.set_listener(nullptr);
  }
  EXPECT_EQ(recovered_entries(dir.path), want);
}

#endif  // PICOLA_FAULT_DISABLED

// --- service-level warm restart ---------------------------------------

TEST(ServicePersistence, WarmRestartServesFromRecoveredCache) {
  TempDir dir;
  Job job;
  job.set.num_symbols = 6;
  job.set.add({0, 1, 2});
  job.set.add({3, 4});
  job.restarts = 2;

  ServiceOptions so;
  so.num_threads = 2;
  so.cache_dir = dir.path;
  so.snapshot_interval_s = -1;  // shutdown snapshot only
  long cold_cubes = 0;
  {
    EncodingService service(so);
    auto f = service.submit(job);
    JobResult r = f.get();
    EXPECT_FALSE(r.cache_hit);
    cold_cubes = r.total_cubes;
  }  // destructor writes the shutdown snapshot

  EncodingService warm(so);
  EXPECT_EQ(warm.cache().size(), 1u);
  ASSERT_NE(warm.store(), nullptr);
  EXPECT_EQ(warm.store()->load_stats().outcome,
            RecoveryOutcome::kSnapshotOnly);
  auto f = warm.submit(job);
  JobResult r = f.get();
  EXPECT_TRUE(r.cache_hit);  // answered from disk state, not recomputed
  EXPECT_EQ(r.total_cubes, cold_cubes);
}

TEST(ServicePersistence, CorruptDirRefusesToStart) {
  TempDir dir;
  ServiceOptions so;
  so.num_threads = 1;
  so.cache_dir = dir.path;
  so.snapshot_interval_s = -1;
  {
    EncodingService service(so);
    Job job;
    job.set.num_symbols = 4;
    job.set.add({0, 1});
    job.restarts = 1;
    service.submit(job).wait();
  }
  std::string sp = dir.path + "/snapshot.pcs";
  std::string bytes = file_bytes(sp);
  bytes[bytes.size() / 2] ^= 0x10;
  write_bytes(sp, bytes);
  EXPECT_THROW(EncodingService bad(so), std::runtime_error);
}

TEST(ServicePersistence, DueHonoursIntervalModes) {
  TempDir dir;
  {
    CacheStore store(opts(dir.path, /*interval=*/-1));
    ResultCache cache(8, 1);
    store.load(&cache);
    cache.set_listener(&store);
    cache.insert(make_job(0), make_result(1));
    cache.set_listener(nullptr);
    EXPECT_FALSE(store.due());  // < 0: shutdown-only
  }
  {
    CacheStore store(opts(dir.path, /*interval=*/0));
    ResultCache cache(8, 1);
    store.load(&cache);
    EXPECT_TRUE(store.due());  // 0: replayed ops count as dirty
    std::string err;
    ASSERT_TRUE(store.snapshot(cache, &err)) << err;
    EXPECT_FALSE(store.due());  // clean after the snapshot
    cache.set_listener(&store);
    cache.insert(make_job(1), make_result(2));
    cache.set_listener(nullptr);
    EXPECT_TRUE(store.due());  // dirty again
  }
}

}  // namespace
}  // namespace picola::persist
