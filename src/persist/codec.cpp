#include "persist/codec.h"

#include <array>
#include <cstring>

#include "service/job.h"

namespace picola::persist {

namespace {

/// Castagnoli table, built on first use (thread-safe since C++11 magic
/// statics); reflected polynomial 0x82F63B78.
const uint32_t* crc32c_table() {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

}  // namespace

uint32_t crc32c(std::string_view data, uint32_t crc) {
  const uint32_t* t = crc32c_table();
  crc = ~crc;
  for (char ch : data)
    crc = t[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

void Writer::u32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
}

void Writer::u64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
}

void Writer::f64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::bytes(std::string_view data) { buf_.append(data); }

bool Reader::take(size_t n, const char** p) {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool Reader::u8(uint8_t* v) {
  const char* p;
  if (!take(1, &p)) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool Reader::u32(uint32_t* v) {
  const char* p;
  if (!take(4, &p)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i)
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return true;
}

bool Reader::u64(uint64_t* v) {
  const char* p;
  if (!take(8, &p)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i)
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return true;
}

bool Reader::i32(int32_t* v) {
  uint32_t u;
  if (!u32(&u)) return false;
  *v = static_cast<int32_t>(u);
  return true;
}

bool Reader::i64(int64_t* v) {
  uint64_t u;
  if (!u64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool Reader::f64(double* v) {
  uint64_t bits;
  if (!u64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

namespace {

// Sanity bound on decoded element counts: a CRC-valid record never
// trips it, but it keeps a hand-crafted hostile length from asking for
// gigabytes before the bounds checks notice.
constexpr uint64_t kMaxElems = 1u << 26;

void put_constraint_set(Writer& w, const ConstraintSet& cs) {
  w.i32(cs.num_symbols);
  w.u32(static_cast<uint32_t>(cs.constraints.size()));
  for (const FaceConstraint& c : cs.constraints) {
    w.u32(static_cast<uint32_t>(c.members.size()));
    for (int m : c.members) w.i32(m);
    w.f64(c.weight);
    w.u8(c.is_guide ? 1 : 0);
    w.i32(c.origin);
  }
}

bool get_constraint_set(Reader& r, ConstraintSet* cs) {
  uint32_t n = 0;
  if (!r.i32(&cs->num_symbols) || !r.u32(&n) || n > kMaxElems) return false;
  cs->constraints.resize(n);
  for (FaceConstraint& c : cs->constraints) {
    uint32_t m = 0;
    if (!r.u32(&m) || m > kMaxElems || m * 4 > r.remaining()) return false;
    c.members.resize(m);
    for (int& s : c.members)
      if (!r.i32(&s)) return false;
    uint8_t guide = 0;
    if (!r.f64(&c.weight) || !r.u8(&guide) || !r.i32(&c.origin)) return false;
    c.is_guide = guide != 0;
  }
  return true;
}

// The four doubles after the flags are the cost-function weights, which
// are constants: they are written as such, and a record holding any other
// value is refused like other format drift.
constexpr double kWeights[] = {kProgressWeight, kSizeWeight,
                               kInfeasibleWeightFactor, kGuideWeightFactor};

void put_options(Writer& w, const PicolaOptions& o) {
  uint8_t flags = (o.use_guides ? 1 : 0) | (o.use_classify ? 2 : 0) |
                  (o.greedy_continue ? 4 : 0) | (o.unweighted ? 8 : 0) |
                  (o.guide.recursive ? 16 : 0) | (o.self_check ? 32 : 0);
  w.u8(flags);
  for (double weight : kWeights) w.f64(weight);
  w.i32(o.num_bits);
  w.u64(o.tie_break_seed);
}

bool get_options(Reader& r, PicolaOptions* o) {
  uint8_t flags = 0;
  if (!r.u8(&flags)) return false;
  for (double weight : kWeights) {
    double stored = 0;
    if (!r.f64(&stored) || stored != weight) return false;
  }
  if (!r.i32(&o->num_bits) || !r.u64(&o->tie_break_seed)) return false;
  o->use_guides = flags & 1;
  o->use_classify = flags & 2;
  o->greedy_continue = flags & 4;
  o->unweighted = flags & 8;
  o->guide.recursive = flags & 16;
  o->self_check = flags & 32;
  o->cancel = nullptr;  // canonical jobs never carry a token or a hook
  o->on_first_tie = nullptr;
  return true;
}

// The three bytes after the backend are the SAT reduction's card,
// distinctness and sweep settings.  Only one configuration is left, so
// they are written as its constants, and a record holding any other
// value (written before the other settings were removed) is refused.
constexpr uint8_t kSatCard =
    static_cast<uint8_t>(sat::CardEncoding::kSequential);
constexpr uint8_t kSatDistinct =
    static_cast<uint8_t>(sat::DistinctEncoding::kDifference);
constexpr uint8_t kSatSweep =
    static_cast<uint8_t>(sat::SweepMode::kDescending);

void put_portfolio(Writer& w, const portfolio::PortfolioOptions& p) {
  w.u8(static_cast<uint8_t>(p.backend));
  w.u8(kSatCard);
  w.u8(kSatDistinct);
  w.u8(kSatSweep);
  w.i64(p.sat_max_conflicts);
  w.u64(p.anneal_seed);
}

bool get_portfolio(Reader& r, portfolio::PortfolioOptions* p) {
  uint8_t backend = 0, card = 0, distinct = 0, sweep = 0;
  int64_t conflicts = 0;
  if (!r.u8(&backend) || !r.u8(&card) || !r.u8(&distinct) || !r.u8(&sweep) ||
      !r.i64(&conflicts) || !r.u64(&p->anneal_seed))
    return false;
  if (backend > static_cast<uint8_t>(portfolio::BackendKind::kPortfolio) ||
      card != kSatCard || distinct != kSatDistinct || sweep != kSatSweep)
    return false;
  p->backend = static_cast<portfolio::BackendKind>(backend);
  p->sat_max_conflicts = conflicts;
  return true;
}

void put_result(Writer& w, const CachedResult& res) {
  const Encoding& e = res.picola.encoding;
  w.i32(e.num_symbols);
  w.i32(e.num_bits);
  w.u32(static_cast<uint32_t>(e.codes.size()));
  for (uint32_t c : e.codes) w.u32(c);

  const PicolaStats& s = res.picola.stats;
  w.i32(s.guides_added);
  w.i32(s.constraints_deactivated);
  w.u32(static_cast<uint32_t>(s.infeasible_per_column.size()));
  for (int v : s.infeasible_per_column) w.i32(v);
  w.u32(static_cast<uint32_t>(s.infeasible_events.size()));
  for (const auto& [col, row] : s.infeasible_events) {
    w.i32(col);
    w.i32(row);
  }
  w.i32(s.satisfied_constraints);
  w.i64(s.classify_calls);
  w.u32(static_cast<uint32_t>(s.column_ms.size()));
  for (double v : s.column_ms) w.f64(v);
  w.f64(s.classify_ms);
  w.f64(s.guide_ms);
  w.f64(s.solve_ms);

  w.i64(res.total_cubes);
  w.u8(static_cast<uint8_t>(res.backend));
}

bool get_result(Reader& r, CachedResult* res) {
  Encoding& e = res->picola.encoding;
  uint32_t n = 0;
  if (!r.i32(&e.num_symbols) || !r.i32(&e.num_bits) || !r.u32(&n) ||
      n > kMaxElems)
    return false;
  e.codes.resize(n);
  for (uint32_t& c : e.codes)
    if (!r.u32(&c)) return false;

  PicolaStats& s = res->picola.stats;
  if (!r.i32(&s.guides_added) || !r.i32(&s.constraints_deactivated) ||
      !r.u32(&n) || n > kMaxElems)
    return false;
  s.infeasible_per_column.resize(n);
  for (int& v : s.infeasible_per_column)
    if (!r.i32(&v)) return false;
  if (!r.u32(&n) || n > kMaxElems) return false;
  s.infeasible_events.resize(n);
  for (auto& [col, row] : s.infeasible_events)
    if (!r.i32(&col) || !r.i32(&row)) return false;
  if (!r.i32(&s.satisfied_constraints) || !r.i64(&s.classify_calls) ||
      !r.u32(&n) || n > kMaxElems)
    return false;
  s.column_ms.resize(n);
  for (double& v : s.column_ms)
    if (!r.f64(&v)) return false;
  if (!r.f64(&s.classify_ms) || !r.f64(&s.guide_ms) || !r.f64(&s.solve_ms))
    return false;

  int64_t cubes = 0;
  uint8_t backend = 0;
  if (!r.i64(&cubes) || !r.u8(&backend) ||
      backend > static_cast<uint8_t>(portfolio::BackendKind::kPortfolio))
    return false;
  res->total_cubes = static_cast<long>(cubes);
  res->backend = static_cast<portfolio::BackendKind>(backend);
  return true;
}

}  // namespace

std::string encode_record(const CanonicalJob& job, const CachedResult& result) {
  Writer w;
  w.u64(job.fingerprint);
  w.i32(job.restarts);
  put_constraint_set(w, job.set);
  put_options(w, job.options);
  put_portfolio(w, job.portfolio);
  put_result(w, result);
  return w.take();
}

bool decode_record(std::string_view payload, CanonicalJob* job,
                   CachedResult* result, std::string* err) {
  Reader r(payload);
  if (!r.u64(&job->fingerprint) || !r.i32(&job->restarts) ||
      !get_constraint_set(r, &job->set) || !get_options(r, &job->options) ||
      !get_portfolio(r, &job->portfolio) || !get_result(r, result) ||
      !r.done()) {
    if (err) *err = "record decode failed (truncated or malformed fields)";
    return false;
  }
  // Deep verification beyond CRC: re-canonicalise the decoded job and
  // demand the identical fingerprint.  Catches format drift (a field
  // added to the fingerprint but not the codec) before it can serve a
  // stale result under a fresh key.
  Job plain;
  plain.set = job->set;
  plain.options = job->options;
  plain.portfolio = job->portfolio;
  plain.restarts = job->restarts;
  CanonicalJob recanon = canonicalize(plain);
  if (recanon.fingerprint != job->fingerprint ||
      !recanon.equivalent(*job)) {
    if (err)
      *err = "record fingerprint mismatch (stored job does not re-hash to "
             "its stored fingerprint — format drift or tampering)";
    return false;
  }
  return true;
}

}  // namespace picola::persist
