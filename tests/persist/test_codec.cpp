// persist/codec.h — CRC32C, the little-endian Writer/Reader pair, and
// the cache-entry record codec (round trip, truncation, drift).

#include "persist/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "service/job.h"
#include "service/result_cache.h"

namespace picola::persist {
namespace {

// --- CRC32C -----------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // The iSCSI check value (RFC 3720 B.4): crc32c("123456789").
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  // 32 zero bytes — another published CRC32C vector.
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t a = crc32c(data.substr(0, split));
    uint32_t b = crc32c(data.substr(split), a);
    EXPECT_EQ(b, crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::string data = "payload under test";
  const uint32_t good = crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(crc32c(data), good) << "byte " << i << " bit " << bit;
      data[i] ^= static_cast<char>(1 << bit);
    }
  }
}

// --- Writer / Reader --------------------------------------------------

TEST(WriterReader, RoundTripEveryWidth) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(3.14159265358979);
  w.f64(-0.0);
  w.bytes("raw");

  Reader r(w.str());
  uint8_t a = 0;
  uint32_t b = 0;
  uint64_t c = 0;
  int32_t d = 0;
  int64_t e = 0;
  double f = 0, g = 1;
  EXPECT_TRUE(r.u8(&a));
  EXPECT_TRUE(r.u32(&b));
  EXPECT_TRUE(r.u64(&c));
  EXPECT_TRUE(r.i32(&d));
  EXPECT_TRUE(r.i64(&e));
  EXPECT_TRUE(r.f64(&f));
  EXPECT_TRUE(r.f64(&g));
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_EQ(d, -42);
  EXPECT_EQ(e, -1234567890123LL);
  EXPECT_DOUBLE_EQ(f, 3.14159265358979);
  EXPECT_EQ(g, 0.0);
  EXPECT_TRUE(std::signbit(g));
  EXPECT_EQ(r.remaining(), 3u);  // "raw"
  EXPECT_FALSE(r.done());        // not fully consumed
}

TEST(WriterReader, LittleEndianOnTheWire) {
  Writer w;
  w.u32(0x01020304u);
  ASSERT_EQ(w.str().size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(w.str()[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(w.str()[3]), 0x01);
}

TEST(WriterReader, UnderrunLatchesFailure) {
  Writer w;
  w.u8(7);
  Reader r(w.str());
  uint32_t v = 0;
  EXPECT_FALSE(r.u32(&v));  // only 1 byte available
  EXPECT_TRUE(r.failed());
  uint8_t b = 0;
  EXPECT_FALSE(r.u8(&b));  // failure latched: even a fitting read fails
  EXPECT_FALSE(r.done());
}

// --- record codec -----------------------------------------------------

CanonicalJob sample_job(int salt = 0) {
  Job j;
  j.set.num_symbols = 8 + salt % 3;
  j.set.add({0, 1, 2});
  j.set.add({3, 4}, 2.5);
  j.set.add({2, 5 + salt % 2, 6});
  j.restarts = 3;
  j.options.num_bits = 4;
  j.options.progress_weight = 1.25;
  j.options.tie_break_seed = 77 + static_cast<uint64_t>(salt);
  return canonicalize(j);
}

CachedResult sample_result(int cubes) {
  CachedResult r;
  r.total_cubes = cubes;
  r.backend = portfolio::BackendKind::kPicola;
  r.picola.encoding.num_symbols = 8;
  r.picola.encoding.num_bits = 4;
  r.picola.encoding.codes = {0, 1, 2, 3, 4, 5, 6, 7};
  r.picola.stats.satisfied_constraints = 3;
  r.picola.stats.solve_ms = 1.5;
  r.picola.stats.infeasible_per_column = {0, 1, 0, 2};
  r.picola.stats.infeasible_events = {{1, 2}, {3, 0}};
  return r;
}

TEST(RecordCodec, RoundTrip) {
  CanonicalJob job = sample_job();
  CachedResult result = sample_result(42);
  std::string payload = encode_record(job, result);

  CanonicalJob job2;
  CachedResult result2;
  std::string err;
  ASSERT_TRUE(decode_record(payload, &job2, &result2, &err)) << err;
  EXPECT_EQ(job2.fingerprint, job.fingerprint);
  EXPECT_TRUE(job2.equivalent(job));
  EXPECT_EQ(result2.total_cubes, result.total_cubes);
  EXPECT_EQ(result2.backend, result.backend);
  EXPECT_EQ(result2.picola.encoding.codes, result.picola.encoding.codes);
  EXPECT_EQ(result2.picola.stats.satisfied_constraints,
            result.picola.stats.satisfied_constraints);
  EXPECT_DOUBLE_EQ(result2.picola.stats.solve_ms,
                   result.picola.stats.solve_ms);
  EXPECT_EQ(result2.picola.stats.infeasible_per_column,
            result.picola.stats.infeasible_per_column);
  EXPECT_EQ(result2.picola.stats.infeasible_events,
            result.picola.stats.infeasible_events);
}

TEST(RecordCodec, EncodingIsDeterministic) {
  EXPECT_EQ(encode_record(sample_job(), sample_result(9)),
            encode_record(sample_job(), sample_result(9)));
}

TEST(RecordCodec, RejectsEveryTruncation) {
  std::string payload = encode_record(sample_job(), sample_result(1));
  for (size_t len = 0; len < payload.size(); ++len) {
    CanonicalJob job;
    CachedResult result;
    std::string err;
    EXPECT_FALSE(decode_record(std::string_view(payload.data(), len), &job,
                               &result, &err))
        << "truncated to " << len << " of " << payload.size();
  }
}

TEST(RecordCodec, RejectsTrailingGarbage) {
  std::string payload = encode_record(sample_job(), sample_result(1));
  payload.push_back('\0');
  CanonicalJob job;
  CachedResult result;
  std::string err;
  EXPECT_FALSE(decode_record(payload, &job, &result, &err));
}

TEST(RecordCodec, RejectsStoredFingerprintDrift) {
  // The record starts with the stored fingerprint; flipping a bit in it
  // must be caught by the re-canonicalisation check even though the
  // payload is structurally valid (the CRC layer lives above this).
  std::string payload = encode_record(sample_job(), sample_result(1));
  payload[0] ^= 0x01;
  CanonicalJob job;
  CachedResult result;
  std::string err;
  EXPECT_FALSE(decode_record(payload, &job, &result, &err));
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

TEST(RecordCodec, RejectsRemovedSatOptionValues) {
  // Version 2 records carry the SAT reduction's card, distinctness and
  // sweep settings as three bytes after the backend.  Only one
  // configuration is left (bytes 1, 0, 0); a record holding any value
  // of the removed settings is refused like other format drift.
  const CanonicalJob job = sample_job();
  const std::string payload = encode_record(job, sample_result(1));
  size_t at = 8 + 4 + 4 + 4;  // fingerprint, restarts, symbols, count
  for (const FaceConstraint& c : job.set.constraints)
    at += 4 + 4 * c.members.size() + 8 + 1 + 4;
  at += 1 + 4 * 8 + 4 + 8;  // PicolaOptions
  at += 1;                  // backend
  ASSERT_EQ(payload.substr(at, 3), std::string("\x01\x00\x00", 3));
  // card: pairwise 0, commander 2; distinct: indicator 1, lazy 2;
  // sweep: binary 1, scratch 2.
  for (auto [offset, value] : {std::pair<size_t, char>{0, 0}, {0, 2},
                               {1, 1}, {1, 2}, {2, 1}, {2, 2}}) {
    std::string drifted = payload;
    drifted[at + offset] = value;
    CanonicalJob j;
    CachedResult r;
    std::string err;
    EXPECT_FALSE(decode_record(drifted, &j, &r, &err))
        << "byte " << offset << " = " << int(value);
  }
}

TEST(RecordCodec, DistinctJobsDistinctPayloads) {
  EXPECT_NE(encode_record(sample_job(0), sample_result(1)),
            encode_record(sample_job(1), sample_result(1)));
}

}  // namespace
}  // namespace picola::persist
