#include "persist/store.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "persist/codec.h"

namespace picola::persist {

namespace {

constexpr char kSnapshotMagic[4] = {'P', 'S', 'N', 'P'};
constexpr char kJournalMagic[4] = {'P', 'J', 'N', 'L'};
constexpr char kTrailerMagic[4] = {'P', 'E', 'N', 'D'};
constexpr size_t kSnapshotHeaderSize = 4 + 4 + 8 + 8;
constexpr size_t kJournalHeaderSize = 4 + 4 + 8 + 4;
constexpr size_t kTrailerSize = 4 + 4;
constexpr size_t kFrameHeaderSize = 4 + 4;  // len + payload crc
constexpr uint8_t kOpInsert = 1;
constexpr uint8_t kOpEvict = 2;

std::string snapshot_path(const std::string& dir) {
  return dir + "/snapshot.pcs";
}
std::string snapshot_tmp_path(const std::string& dir) {
  return dir + "/snapshot.pcs.tmp";
}
std::string journal_path(const std::string& dir, uint64_t epoch) {
  return dir + "/journal-" + std::to_string(epoch) + ".pcj";
}

/// Epoch of a journal file name ("journal-<n>.pcj"), or nullopt.
std::optional<uint64_t> journal_name_epoch(const std::string& name) {
  constexpr char kPrefix[] = "journal-";
  constexpr char kSuffix[] = ".pcj";
  if (name.size() <= sizeof(kPrefix) - 1 + sizeof(kSuffix) - 1) return {};
  if (name.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) return {};
  if (name.compare(name.size() - (sizeof(kSuffix) - 1), sizeof(kSuffix) - 1,
                   kSuffix) != 0)
    return {};
  uint64_t epoch = 0;
  size_t begin = sizeof(kPrefix) - 1;
  size_t end = name.size() - (sizeof(kSuffix) - 1);
  if (begin == end) return {};
  for (size_t i = begin; i < end; ++i) {
    if (name[i] < '0' || name[i] > '9') return {};
    epoch = epoch * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return epoch;
}

[[noreturn]] void corrupt(const std::string& file, const std::string& what) {
  throw std::runtime_error("persist: refusing to load " + file + ": " + what);
}

void check_version(const std::string& file, uint32_t version) {
  if (version != kFormatVersion)
    corrupt(file, "format version " + std::to_string(version) +
                      " (this build reads version " +
                      std::to_string(kFormatVersion) + ")");
}

std::string journal_header(uint64_t epoch) {
  Writer w;
  w.bytes({kJournalMagic, 4});
  w.u32(kFormatVersion);
  w.u64(epoch);
  w.u32(crc32c(w.str()));
  return w.take();
}

std::string frame_record(const std::string& payload) {
  Writer w;
  w.u32(static_cast<uint32_t>(payload.size()));
  w.u32(crc32c(payload));
  w.bytes(payload);
  return w.take();
}

}  // namespace

const char* recovery_outcome_name(RecoveryOutcome o) {
  switch (o) {
    case RecoveryOutcome::kNone: return "none";
    case RecoveryOutcome::kEmpty: return "empty";
    case RecoveryOutcome::kSnapshotOnly: return "snapshot_only";
    case RecoveryOutcome::kJournalOnly: return "journal_only";
    case RecoveryOutcome::kBoth: return "snapshot+journal";
  }
  return "?";
}

CacheStore::CacheStore(StoreOptions options, obs::MetricsRegistry* metrics)
    : options_(std::move(options)) {
  std::string err;
  if (!io::ensure_dir(options_.dir, &err))
    throw std::runtime_error("persist: cache dir unusable: " + err);
  if (metrics) {
    snapshots_ = &metrics->counter("persist/snapshots");
    snapshot_failures_ = &metrics->counter("persist/snapshot_failures");
    journal_appends_ = &metrics->counter("persist/journal_appends");
    append_errors_ = &metrics->counter("persist/append_errors");
    snapshot_ns_ = &metrics->histogram("persist/snapshot");
    snapshot_age_gauge_ = &metrics->gauge("persist/snapshot_age_seconds");
    journal_bytes_gauge_ = &metrics->gauge("persist/journal_bytes");
    records_loaded_gauge_ = &metrics->gauge("persist/records_loaded");
    journal_replayed_gauge_ = &metrics->gauge("persist/journal_replayed");
    outcome_gauge_ = &metrics->gauge("persist/recovery_outcome");
    epoch_gauge_ = &metrics->gauge("persist/epoch");
    torn_tail_gauge_ = &metrics->gauge("persist/torn_tail");
  }
}

CacheStore::~CacheStore() {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_.valid()) {
    std::string err;
    (void)io::fsync_file(journal_, &err);
    journal_.close();
  }
}

LoadStats CacheStore::load(ResultCache* cache) {
  LoadStats stats;
  uint64_t snapshot_epoch = 0;
  bool have_snapshot = false;

  // --- Snapshot replay (hard-fail on anything but absence). ---
  const std::string snap = snapshot_path(options_.dir);
  if (io::exists(snap)) {
    std::string err;
    io::File f = io::open_read(snap, &err);
    if (!f.valid()) corrupt(snap, err);
    std::string data;
    if (!io::read_all(f, &data, &err)) corrupt(snap, err);
    if (data.size() < kSnapshotHeaderSize + kTrailerSize)
      corrupt(snap, "truncated header");
    Reader r(std::string_view(data).substr(0, kSnapshotHeaderSize));
    uint8_t magic[4];
    uint32_t version = 0;
    uint64_t count = 0;
    for (uint8_t& m : magic) r.u8(&m);
    r.u32(&version);
    r.u64(&snapshot_epoch);
    r.u64(&count);
    if (std::memcmp(magic, kSnapshotMagic, 4) != 0) corrupt(snap, "bad magic");
    check_version(snap, version);
    size_t pos = kSnapshotHeaderSize;
    for (uint64_t i = 0; i < count; ++i) {
      if (data.size() - pos < kFrameHeaderSize + kTrailerSize)
        corrupt(snap, "truncated record " + std::to_string(i));
      Reader fr(std::string_view(data).substr(pos, kFrameHeaderSize));
      uint32_t len = 0, crc = 0;
      fr.u32(&len);
      fr.u32(&crc);
      pos += kFrameHeaderSize;
      if (len > data.size() - kTrailerSize - pos)
        corrupt(snap, "truncated record " + std::to_string(i));
      std::string_view payload(data.data() + pos, len);
      pos += len;
      if (crc32c(payload) != crc)
        corrupt(snap, "record " + std::to_string(i) + " checksum mismatch");
      CanonicalJob job;
      CachedResult result;
      if (!decode_record(payload, &job, &result, &err))
        corrupt(snap, "record " + std::to_string(i) + ": " + err);
      // for_each exported MRU-first; tail-appending rebuilds that order.
      cache->load_insert(job, std::move(result), /*most_recent=*/false);
      ++stats.snapshot_records;
    }
    if (data.size() - pos != kTrailerSize)
      corrupt(snap, "trailing bytes after the last record");
    if (std::memcmp(data.data() + pos, kTrailerMagic, 4) != 0)
      corrupt(snap, "bad trailer magic");
    Reader tr(std::string_view(data).substr(pos + 4, 4));
    uint32_t file_crc = 0;
    tr.u32(&file_crc);
    if (crc32c(std::string_view(data).substr(0, pos)) != file_crc)
      corrupt(snap, "file checksum mismatch");
    have_snapshot = true;
  }

  // --- Journal replay: every epoch >= the snapshot's, ascending. ---
  std::vector<uint64_t> epochs;
  for (const std::string& name : io::list_dir(options_.dir))
    if (auto e = journal_name_epoch(name))
      if (*e >= snapshot_epoch) epochs.push_back(*e);
  std::sort(epochs.begin(), epochs.end());

  uint64_t active_epoch = snapshot_epoch;
  uint64_t active_offset = 0;  // append position in the active journal
  for (size_t j = 0; j < epochs.size(); ++j) {
    const bool last = j + 1 == epochs.size();
    const std::string path = journal_path(options_.dir, epochs[j]);
    std::string err;
    io::File f = io::open_read(path, &err);
    if (!f.valid()) corrupt(path, err);
    std::string data;
    if (!io::read_all(f, &data, &err)) corrupt(path, err);
    if (data.size() < kJournalHeaderSize) {
      // A header can only be torn by a crash during journal creation,
      // which nothing ever appends after — legal solely on the newest
      // journal, where recovery rewrites it from scratch.
      if (!last) corrupt(path, "truncated header mid-chain");
      stats.torn_tail = stats.torn_tail || !data.empty();
      active_epoch = epochs[j];
      active_offset = 0;
      ++stats.journals;
      continue;
    }
    {
      Reader r(std::string_view(data).substr(0, kJournalHeaderSize));
      uint8_t magic[4];
      uint32_t version = 0, header_crc = 0;
      uint64_t epoch = 0;
      for (uint8_t& m : magic) r.u8(&m);
      r.u32(&version);
      r.u64(&epoch);
      r.u32(&header_crc);
      if (std::memcmp(magic, kJournalMagic, 4) != 0) corrupt(path, "bad magic");
      check_version(path, version);
      if (epoch != epochs[j]) corrupt(path, "epoch does not match file name");
      if (crc32c(std::string_view(data).substr(0, kJournalHeaderSize - 4)) !=
          header_crc)
        corrupt(path, "header checksum mismatch");
    }
    size_t pos = kJournalHeaderSize;
    size_t good = pos;  // end of the last intact record
    while (pos < data.size()) {
      if (data.size() - pos < kFrameHeaderSize) break;  // torn frame header
      Reader fr(std::string_view(data).substr(pos, kFrameHeaderSize));
      uint32_t len = 0, crc = 0;
      fr.u32(&len);
      fr.u32(&crc);
      if (len > data.size() - pos - kFrameHeaderSize) break;  // torn payload
      std::string_view payload(data.data() + pos + kFrameHeaderSize, len);
      if (crc32c(payload) != crc) {
        // A full-length record with a bad sum is not a torn append — a
        // crash leaves a short file, never garbage of the right length.
        corrupt(path, "record checksum mismatch at offset " +
                          std::to_string(pos));
      }
      Reader pr(payload);
      uint8_t op = 0;
      if (!pr.u8(&op)) corrupt(path, "empty record");
      if (op == kOpInsert) {
        CanonicalJob job;
        CachedResult result;
        if (!decode_record(payload.substr(1), &job, &result, &err))
          corrupt(path, err);
        cache->load_insert(job, std::move(result), /*most_recent=*/true);
        ++stats.journal_inserts;
      } else if (op == kOpEvict) {
        uint64_t fp = 0;
        if (!pr.u64(&fp) || !pr.done()) corrupt(path, "malformed evict");
        cache->load_erase(fp);
        ++stats.journal_evicts;
      } else {
        corrupt(path, "unknown op " + std::to_string(op));
      }
      pos += kFrameHeaderSize + len;
      good = pos;
    }
    if (good != data.size()) {
      // Bytes past the last intact record: a torn final append.  Legal
      // only at the physical end of the newest journal.
      if (!last) corrupt(path, "torn record mid-chain");
      stats.torn_tail = true;
    }
    active_epoch = epochs[j];
    active_offset = good;
    ++stats.journals;
  }

  stats.epoch = active_epoch;
  stats.outcome =
      have_snapshot
          ? (stats.journal_inserts + stats.journal_evicts > 0
                 ? RecoveryOutcome::kBoth
                 : RecoveryOutcome::kSnapshotOnly)
          : (stats.journal_inserts + stats.journal_evicts > 0
                 ? RecoveryOutcome::kJournalOnly
                 : RecoveryOutcome::kEmpty);

  {
    std::lock_guard<std::mutex> lock(mu_);
    journal_epoch_ = active_epoch;
    // The journal itself is opened lazily on the first append (load()
    // stays free of write side effects so a verification pass can run
    // on a live dir); a torn tail is truncated away then.
    journal_bytes_ = active_offset;
    // Force the first snapshot to compact whenever recovery had to
    // replay journal records or cut a torn tail.
    ops_since_snapshot_ =
        stats.journal_inserts + stats.journal_evicts + (stats.torn_tail ? 1 : 0);
    load_stats_ = stats;
  }
  if (records_loaded_gauge_)
    records_loaded_gauge_->set(static_cast<int64_t>(stats.snapshot_records));
  if (journal_replayed_gauge_)
    journal_replayed_gauge_->set(
        static_cast<int64_t>(stats.journal_inserts + stats.journal_evicts));
  if (outcome_gauge_) outcome_gauge_->set(static_cast<int>(stats.outcome));
  if (epoch_gauge_) epoch_gauge_->set(static_cast<int64_t>(stats.epoch));
  if (torn_tail_gauge_) torn_tail_gauge_->set(stats.torn_tail ? 1 : 0);
  refresh_gauges();
  return stats;
}

bool CacheStore::open_journal(uint64_t epoch, std::string* err) {
  if (journal_.valid() && epoch == journal_epoch_) return true;
  journal_.close();
  const std::string path = journal_path(options_.dir, epoch);
  int64_t size = io::file_size(path);
  io::File f = io::open_append(path, err);
  if (!f.valid()) return false;
  if (size < static_cast<int64_t>(kJournalHeaderSize)) {
    // New journal (or one whose creation was cut short): start it over.
    if (size > 0 && !io::truncate_file(f, 0, err)) return false;
    std::string header = journal_header(epoch);
    if (!io::write_all(f, header.data(), header.size(), err)) return false;
    journal_bytes_ = header.size();
  } else if (static_cast<int64_t>(journal_bytes_) < size) {
    // load() found a torn tail at journal_bytes_; cut it before the
    // next record lands so the file never holds garbage mid-stream.
    if (!io::truncate_file(f, journal_bytes_, err)) return false;
  } else {
    journal_bytes_ = static_cast<uint64_t>(size);
  }
  journal_ = std::move(f);
  journal_epoch_ = epoch;
  return true;
}

bool CacheStore::append(const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_broken_) {
    count_append_error("journal broken (awaiting rotation)");
    return false;
  }
  std::string err;
  if (!open_journal(journal_epoch_, &err)) {
    count_append_error(err);
    return false;
  }
  std::string frame = frame_record(payload);
  uint64_t before = journal_bytes_;
  if (!io::write_all(journal_, frame.data(), frame.size(), &err)) {
    // A failed append may have landed a prefix; cut back to the last
    // record boundary so the file stays parseable.  If even that fails
    // the journal is broken until the next rotation gives a fresh file.
    std::string terr;
    if (!io::truncate_file(journal_, before, &terr)) journal_broken_ = true;
    count_append_error(err);
    return false;
  }
  journal_bytes_ = before + frame.size();
  ++ops_since_snapshot_;
  if (journal_appends_) journal_appends_->add(1);
  return true;
}

void CacheStore::count_append_error(const std::string& err) {
  if (append_errors_) append_errors_->add(1);
  static_cast<void>(err);  // the counter is the operator signal
}

void CacheStore::on_insert(const CanonicalJob& job,
                           const CachedResult& result) {
  Writer w;
  w.u8(kOpInsert);
  w.bytes(encode_record(job, result));
  append(w.take());
}

void CacheStore::on_evict(uint64_t fingerprint) {
  Writer w;
  w.u8(kOpEvict);
  w.u64(fingerprint);
  append(w.take());
}

bool CacheStore::rotate_journal(std::string* err) {
  if (journal_.valid()) {
    // Rotation is the journal's durability barrier (appends themselves
    // only hit the page cache).  An fsync failure here loses nothing on
    // a process kill, so degrade and rotate anyway.
    std::string ferr;
    if (!io::fsync_file(journal_, &ferr)) count_append_error(ferr);
    journal_.close();
  }
  ++journal_epoch_;
  if (epoch_gauge_) epoch_gauge_->set(static_cast<int64_t>(journal_epoch_));
  journal_bytes_ = 0;
  journal_broken_ = false;
  // Created lazily by the first append; the epoch exists logically the
  // moment the snapshot stamped with it is durable.
  static_cast<void>(err);
  return true;
}

bool CacheStore::snapshot(const ResultCache& cache, std::string* error) {
  uint64_t t0 = obs::now_ns();
  uint64_t epoch;
  {
    // Step 1 — rotate: appends from here on land in the new epoch and
    // survive regardless of how far the snapshot below gets.
    std::lock_guard<std::mutex> lock(mu_);
    std::string err;
    rotate_journal(&err);
    epoch = journal_epoch_;
    ops_since_snapshot_ = 0;
  }

  // Step 2 — export.  No store lock held: for_each takes cache shard
  // locks, and concurrent inserts take shard lock then mu_ (appending to
  // the already-rotated journal), so holding mu_ here would deadlock.
  std::vector<std::string> records;
  cache.for_each([&records](const CanonicalJob& job, const CachedResult& res) {
    records.push_back(encode_record(job, res));
  });

  Writer w;
  w.bytes({kSnapshotMagic, 4});
  w.u32(kFormatVersion);
  w.u64(epoch);
  w.u64(records.size());
  for (const std::string& r : records) w.bytes(frame_record(r));
  uint32_t file_crc = crc32c(w.str());
  w.bytes({kTrailerMagic, 4});
  w.u32(file_crc);
  std::string data = w.take();

  const std::string tmp = snapshot_tmp_path(options_.dir);
  auto fail = [&](const std::string& why) {
    std::string uerr;
    io::unlink_file(tmp, &uerr);
    if (snapshot_failures_) snapshot_failures_->add(1);
    if (error) *error = why;
    return false;
  };

  // Step 3 — write-temp, fsync, atomic rename, fsync dir.
  std::string err;
  {
    io::File f = io::create_trunc(tmp, &err);
    if (!f.valid()) return fail(err);
    for (size_t off = 0; off < data.size(); off += 1 << 16) {
      size_t chunk = std::min(data.size() - off, size_t{1} << 16);
      if (!io::write_all(f, data.data() + off, chunk, &err)) return fail(err);
    }
    if (!io::fsync_file(f, &err)) return fail(err);
  }
  if (!io::rename_file(tmp, snapshot_path(options_.dir), &err))
    return fail(err);
  if (!io::fsync_dir(options_.dir, &err)) return fail(err);

  // Step 4 — the snapshot is durable; only now retire older journals.
  for (const std::string& name : io::list_dir(options_.dir))
    if (auto e = journal_name_epoch(name); e && *e < epoch) {
      std::string uerr;
      io::unlink_file(options_.dir + "/" + name, &uerr);
    }

  {
    std::lock_guard<std::mutex> lock(mu_);
    last_snapshot_ns_ = static_cast<int64_t>(obs::now_ns());
  }
  if (snapshots_) snapshots_->add(1);
  if (snapshot_ns_) snapshot_ns_->record(obs::now_ns() - t0);
  refresh_gauges();
  return true;
}

bool CacheStore::due() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.snapshot_interval_s < 0) return false;
  if (ops_since_snapshot_ == 0) return false;
  if (options_.snapshot_interval_s == 0) return true;
  if (last_snapshot_ns_ < 0) return true;
  return obs::now_ns() - static_cast<uint64_t>(last_snapshot_ns_) >=
         static_cast<uint64_t>(options_.snapshot_interval_s) * 1'000'000'000ULL;
}

void CacheStore::refresh_gauges() const {
  if (snapshot_age_gauge_) {
    double age = snapshot_age_s();
    snapshot_age_gauge_->set(age < 0 ? -1 : static_cast<int64_t>(age));
  }
  if (journal_bytes_gauge_)
    journal_bytes_gauge_->set(static_cast<int64_t>(journal_bytes()));
}

uint64_t CacheStore::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_epoch_;
}

uint64_t CacheStore::journal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_bytes_;
}

double CacheStore::snapshot_age_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (last_snapshot_ns_ < 0) return -1;
  return static_cast<double>(obs::now_ns() -
                             static_cast<uint64_t>(last_snapshot_ns_)) /
         1e9;
}

}  // namespace picola::persist
