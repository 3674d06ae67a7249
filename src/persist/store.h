#pragma once
// Durable storage engine for the ResultCache: a versioned, checksummed
// snapshot plus an epoch-numbered append-only journal, giving a
// restarted service a warm cache that serves bit-identical results.
//
// On-disk layout inside the cache dir (all integers little-endian):
//
//   snapshot.pcs    "PSNP" u32 version  u64 epoch  u64 record_count
//                   record*  { u32 len  u32 crc32c(payload)  payload }
//                   "PEND"   u32 crc32c(everything before the trailer)
//   journal-E.pcj   "PJNL" u32 version  u64 epoch  u32 crc32c(header)
//                   record*  { u32 len  u32 crc32c(payload)  payload }
//                   where payload = u8 op (1 insert | 2 evict) + body
//
// Snapshot protocol (crash-consistent at every step):
//   1. rotate: fsync + close journal epoch E, open journal E+1 — new
//      appends land there, nothing written during the snapshot is lost;
//   2. export the cache (ResultCache::for_each) into snapshot.pcs.tmp
//      stamped epoch E+1;
//   3. fsync the tmp, rename(tmp -> snapshot.pcs), fsync the dir —
//      the snapshot is durable atomically or not at all;
//   4. only now prune journals with epoch < E+1 (the "journal truncated
//      after the snapshot is durable" rule).
//
// Recovery (load): read the snapshot (epoch S; ANY corruption —
// checksum, version, truncation — hard-fails rather than serving bytes
// rot invented), then replay journals with epoch >= S in ascending
// order.  A torn record is tolerated ONLY at the physical end of the
// highest-epoch journal — the one state a kill -9 mid-append can
// manufacture — and is truncated away; a bad CRC anywhere else is
// corruption and hard-fails.  Per-fingerprint replay order is exact
// because the cache emits journal events under the owning shard's lock.
//
// Durability contract: journal appends are write()s without per-record
// fsync — surviving process death (kill -9) needs only the page cache,
// which is exactly what the chaos harness proves; a machine crash may
// lose the tail since the last rotation/shutdown fsync.  Snapshots are
// always fully fsync'd.  Persistence failures (ENOSPC, EIO...) degrade:
// the store logs + counts them and the service keeps serving from
// memory — the cache is a memo, never the source of truth.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "persist/io.h"
#include "service/result_cache.h"

namespace picola::persist {

/// Bump whenever the record codec (codec.h) or file framing changes, or
/// when a job's result changes under an unchanged fingerprint.  Version 2:
/// the portfolio plan no longer runs the annealer, so a version-1 dir can
/// hold annealer-won portfolio entries this build would not reproduce.
constexpr uint32_t kFormatVersion = 2;

struct StoreOptions {
  std::string dir;  ///< created if missing (one level)
  /// Seconds between periodic snapshots: > 0 = at most one per interval,
  /// 0 = whenever anything changed (chaos/test mode), < 0 = only the
  /// explicit shutdown snapshot.
  int snapshot_interval_s = 300;
};

/// What load() found, for operators ("recovery outcome" in /statusz).
enum class RecoveryOutcome : int {
  kNone = 0,         ///< no load attempted (persistence off)
  kEmpty = 1,        ///< fresh dir: cold start
  kSnapshotOnly = 2, ///< snapshot, no journal records
  kJournalOnly = 3,  ///< journal records, no snapshot
  kBoth = 4,         ///< snapshot + journal tail
};

const char* recovery_outcome_name(RecoveryOutcome o);

struct LoadStats {
  RecoveryOutcome outcome = RecoveryOutcome::kNone;
  size_t snapshot_records = 0;  ///< entries loaded from the snapshot
  size_t journal_inserts = 0;   ///< insert records replayed
  size_t journal_evicts = 0;    ///< evict records replayed
  size_t journals = 0;          ///< journal files replayed
  bool torn_tail = false;       ///< a torn final record was truncated
  uint64_t epoch = 0;           ///< active journal epoch after load
};

/// The engine.  One instance owns one cache dir.  Thread-safety: journal
/// appends (listener callbacks, arriving under cache shard locks) and
/// snapshot() serialise on an internal mutex; load() must happen-before
/// concurrent use, as must the listener attach/detach (see
/// ResultCache::set_listener).
class CacheStore : public ResultCache::Listener {
 public:
  /// Opens/creates the dir.  Throws std::runtime_error when the dir
  /// cannot be created.  `metrics` (optional) receives the persist/*
  /// instruments; it must outlive the store.
  explicit CacheStore(StoreOptions options,
                      obs::MetricsRegistry* metrics = nullptr);
  ~CacheStore() override;  // fsync + close the journal

  CacheStore(const CacheStore&) = delete;
  CacheStore& operator=(const CacheStore&) = delete;

  /// Recover into `cache` (snapshot replay, then journal tail) and open
  /// the active journal for appending.  Throws std::runtime_error on
  /// corruption or version mismatch — a service must refuse to start on
  /// a cache dir it cannot trust, not silently serve from it.
  LoadStats load(ResultCache* cache);

  /// ResultCache::Listener — journal the mutation.  Append errors
  /// degrade (counted, journal marked broken until the next rotation);
  /// they never throw into the serving path.
  void on_insert(const CanonicalJob& job, const CachedResult& result) override;
  void on_evict(uint64_t fingerprint) override;

  /// Write a durable snapshot of `cache` (protocol above).  False +
  /// *error when any step failed; the previous snapshot and the journal
  /// chain survive a failed attempt.
  bool snapshot(const ResultCache& cache, std::string* error = nullptr);

  /// True when enough has changed/elapsed that snapshot() should run
  /// (see StoreOptions::snapshot_interval_s).
  bool due() const;

  /// Refresh the persist/* gauges (snapshot age, journal bytes).
  void refresh_gauges() const;

  const LoadStats& load_stats() const { return load_stats_; }
  uint64_t epoch() const;
  uint64_t journal_bytes() const;
  /// Seconds since the last successful snapshot (this process); -1
  /// before the first one.
  double snapshot_age_s() const;
  const std::string& dir() const { return options_.dir; }

 private:
  struct JournalFile;

  bool append(const std::string& payload);
  bool open_journal(uint64_t epoch, std::string* err);
  bool rotate_journal(std::string* err);
  void count_append_error(const std::string& err);

  StoreOptions options_;
  LoadStats load_stats_;

  mutable std::mutex mu_;        ///< guards everything below
  io::File journal_;             ///< active journal (append mode)
  uint64_t journal_epoch_ = 0;
  uint64_t journal_bytes_ = 0;   ///< bytes in the active journal
  bool journal_broken_ = false;  ///< append failed; wait for rotation
  uint64_t ops_since_snapshot_ = 0;
  int64_t last_snapshot_ns_ = -1;  ///< obs::now_ns() of last success

  // persist/* instruments (null when metrics are off).
  obs::Counter* snapshots_ = nullptr;
  obs::Counter* snapshot_failures_ = nullptr;
  obs::Counter* journal_appends_ = nullptr;
  obs::Counter* append_errors_ = nullptr;
  obs::Histogram* snapshot_ns_ = nullptr;
  obs::Gauge* snapshot_age_gauge_ = nullptr;
  obs::Gauge* journal_bytes_gauge_ = nullptr;
  obs::Gauge* records_loaded_gauge_ = nullptr;
  obs::Gauge* journal_replayed_gauge_ = nullptr;
  obs::Gauge* outcome_gauge_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Gauge* torn_tail_gauge_ = nullptr;
};

}  // namespace picola::persist
