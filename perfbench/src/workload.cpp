#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "base/problem_io.h"
#include "constraints/constraint_io.h"
#include "constraints/derive.h"
#include "kiss/benchmarks.h"
#include "kiss/kiss_io.h"
#include "portfolio/portfolio.h"
#include "service/job.h"

namespace perfbench {

using picola::ConstraintSet;
using picola::Fsm;
using picola::portfolio::BackendKind;

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

size_t Rng::below(size_t n) {
  // Rejection keeps the draw exactly uniform.
  const uint64_t bound = n;
  const uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  uint64_t x = next();
  while (x >= limit) x = next();
  return static_cast<size_t>(x % bound);
}

namespace {

// Request-list sizes.  cold_con's list (about 28,000 distinct problems)
// outlasts a 40 s phase at today's throughput (450-620 jobs/s) and
// portfolio_fsm's (466) one of 40 s at ~9 jobs/s; a faster server ends
// the phase when the list runs out, which still measures jobs/s.
// hot_con's working set stays well under the default cache capacity
// (1024).
constexpr int kColdRounds = 960;
constexpr int kColdQualityRounds = 4;
constexpr int kHotRounds = 8;
constexpr int kKissConVariants = 4;
constexpr int kPortfolioRounds = 36;
constexpr int kPortfolioQualityRounds = 2;
constexpr int kDrawAttempts = 64;

// The small machines of Table I (the paper's first group), whose
// relabelled constraint sets make kiss_mix's cheap .con stream.
constexpr int kSmallTable1 = 13;

// Table I FSMs whose full portfolio plan (4 picola + sat + 4 anneal
// slots) finishes within about 0.5 s.  Left out: dk16 (sat slot 378 s),
// tbk (189 s) and keyb (10.8 s).
const std::vector<std::string>& portfolio_machines() {
  static const std::vector<std::string> kNames = {
      "bbara", "bbsse", "cse",   "dk14",    "ex3", "ex5",  "ex7",
      "lion9", "mark1", "opus",  "train11", "s8",  "s386",
  };
  return kNames;
}

uint64_t salted(uint64_t seed, const std::string& salt) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : salt) h = (h ^ c) * 1099511628211ULL;
  return seed ^ h;
}

const Fsm& machine(const std::string& name) {
  static std::map<std::string, Fsm> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, picola::make_benchmark(name)).first;
  return it->second;
}

const ConstraintSet& table1_set(const std::string& name) {
  static std::map<std::string, ConstraintSet> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, picola::derive_face_constraints(machine(name)).set)
             .first;
  return it->second;
}

std::vector<int> random_perm(int n, Rng& rng) {
  std::vector<int> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  rng.shuffle(perm);
  return perm;
}

// One relabelled copy of a Table I set, distinct from every problem in
// `seen`; nullopt when kDrawAttempts draws all collide (tiny sets
// have few distinct relabellings).
std::optional<size_t> add_relabelled(Workload* w,
                                     std::unordered_set<uint64_t>* seen,
                                     const std::string& name, Rng& rng) {
  const ConstraintSet& base = table1_set(name);
  for (int attempt = 0; attempt < kDrawAttempts; ++attempt) {
    Problem p;
    p.label = name + "#" + std::to_string(w->problems.size());
    p.kind = TextKind::kCon;
    p.text = picola::write_constraints(
        relabel(base, random_perm(base.num_symbols, rng)));
    resolve(&p);
    if (auto idx = add_distinct(&w->problems, seen, std::move(p))) return idx;
  }
  return std::nullopt;
}

// One round: every name once, in seeded order.
void relabelled_round(Workload* w, std::unordered_set<uint64_t>* seen,
                      std::vector<std::string> names, Rng& rng,
                      std::vector<size_t>* out) {
  rng.shuffle(names);
  for (const auto& name : names)
    if (auto idx = add_relabelled(w, seen, name, rng)) out->push_back(*idx);
}

std::vector<size_t> prefix(const std::vector<size_t>& v, size_t n) {
  return {v.begin(), v.begin() + static_cast<long>(std::min(n, v.size()))};
}

std::vector<size_t> all_problems(const Workload& w) {
  std::vector<size_t> all(w.problems.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

Workload make_cold_con(uint64_t seed) {
  Workload w;
  w.name = "cold_con";
  Rng rng(salted(seed, w.name));
  std::unordered_set<uint64_t> seen;
  const auto& names = picola::table1_benchmarks();
  // The warm-up round is drawn first and shares `seen`, so no measured
  // request can hit a warm-up result.
  relabelled_round(&w, &seen, names, rng, &w.warmup);
  Stream s;
  s.connections = 2;
  for (int r = 0; r < kColdRounds; ++r)
    relabelled_round(&w, &seen, names, rng, &s.order);
  w.quality_set = prefix(s.order, names.size() * kColdQualityRounds);
  w.min_requests = std::max(kMinRequests, w.quality_set.size());
  w.streams.push_back(std::move(s));
  return w;
}

Workload make_hot_con(uint64_t seed) {
  Workload w;
  w.name = "hot_con";
  w.primed = true;
  Rng rng(salted(seed, w.name));
  std::unordered_set<uint64_t> seen;
  std::vector<size_t> working_set;
  for (int r = 0; r < kHotRounds; ++r)
    relabelled_round(&w, &seen, picola::table1_benchmarks(), rng,
                     &working_set);
  Stream s;
  s.connections = 2;
  s.cycle = true;
  s.order = working_set;
  rng.shuffle(s.order);
  w.warmup = working_set;
  w.quality_set = working_set;
  w.streams.push_back(std::move(s));
  return w;
}

Workload make_kiss_mix(uint64_t seed) {
  Workload w;
  w.name = "kiss_mix";
  Rng rng(salted(seed, w.name));
  std::unordered_set<uint64_t> seen;
  Stream kiss;
  for (const auto& name : picola::table1_benchmarks()) {
    if (name == "tbk") continue;  // its ~0.5-0.9 s derivation would stall
                                  // the stream to a handful of requests
    Problem p;
    p.label = name;
    p.kind = TextKind::kKiss;
    p.text = picola::write_kiss(machine(name));
    resolve(&p);
    if (auto idx = add_distinct(&w.problems, &seen, std::move(p)))
      kiss.order.push_back(*idx);
  }
  Stream con;
  const std::vector<std::string> small(
      picola::table1_benchmarks().begin(),
      picola::table1_benchmarks().begin() + kSmallTable1);
  for (int r = 0; r < kKissConVariants; ++r)
    relabelled_round(&w, &seen, small, rng, &con.order);
  rng.shuffle(kiss.order);
  rng.shuffle(con.order);
  kiss.cycle = con.cycle = true;
  w.streams = {std::move(kiss), std::move(con)};
  w.warmup = all_problems(w);
  w.quality_set = all_problems(w);
  return w;
}

std::optional<size_t> add_reordered(Workload* w,
                                    std::unordered_set<uint64_t>* seen,
                                    const std::string& name, Rng& rng) {
  for (int attempt = 0; attempt < kDrawAttempts; ++attempt) {
    Fsm fsm = machine(name);
    rng.shuffle(fsm.transitions);
    Problem p;
    p.label = name + "#" + std::to_string(w->problems.size());
    p.kind = TextKind::kKiss;
    p.backend = BackendKind::kPortfolio;
    p.text = picola::write_kiss(fsm);
    resolve(&p);
    if (auto idx = add_distinct(&w->problems, seen, std::move(p))) return idx;
  }
  return std::nullopt;
}

Workload make_portfolio_fsm(uint64_t seed) {
  Workload w;
  w.name = "portfolio_fsm";
  Rng rng(salted(seed, w.name));
  std::unordered_set<uint64_t> seen;
  for (const char* name : {"dk14", "s8"})
    if (auto idx = add_reordered(&w, &seen, name, rng))
      w.warmup.push_back(*idx);
  Stream s;
  for (int r = 0; r < kPortfolioRounds; ++r) {
    std::vector<std::string> names = portfolio_machines();
    rng.shuffle(names);
    for (const auto& name : names)
      if (auto idx = add_reordered(&w, &seen, name, rng))
        s.order.push_back(*idx);
  }
  w.quality_set =
      prefix(s.order, portfolio_machines().size() * kPortfolioQualityRounds);
  w.min_requests = std::max(kMinRequests, w.quality_set.size());
  w.streams.push_back(std::move(s));
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"cold_con", "hot_con",
                                                  "kiss_mix", "portfolio_fsm"};
  return kNames;
}

Workload make_workload(const std::string& name, uint64_t seed) {
  if (name == "cold_con") return make_cold_con(seed);
  if (name == "hot_con") return make_hot_con(seed);
  if (name == "kiss_mix") return make_kiss_mix(seed);
  if (name == "portfolio_fsm") return make_portfolio_fsm(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

ConstraintSet relabel(const ConstraintSet& set, const std::vector<int>& perm) {
  ConstraintSet out;
  out.num_symbols = set.num_symbols;
  for (const auto& c : set.constraints) {
    std::vector<int> members;
    members.reserve(c.members.size());
    for (int m : c.members) members.push_back(perm[static_cast<size_t>(m)]);
    out.add(std::move(members), c.weight);
  }
  return out;
}

void resolve(Problem* p) {
  std::string error;
  auto parsed = picola::parse_problem_text(p->text, &error);
  if (!parsed) throw std::runtime_error(p->label + ": " + error);
  picola::Job job;
  job.set = std::move(parsed->set);
  job.restarts = kRestarts;
  job.portfolio.backend = p->backend;
  picola::CanonicalJob cj = picola::canonicalize(job);
  p->set = std::move(cj.set);
  p->fingerprint = cj.fingerprint;
}

std::optional<size_t> add_distinct(std::vector<Problem>* problems,
                                   std::unordered_set<uint64_t>* seen,
                                   Problem p) {
  if (!seen->insert(p.fingerprint).second) return std::nullopt;
  problems->push_back(std::move(p));
  return problems->size() - 1;
}

size_t slots_per_job(const Problem& p) {
  return picola::portfolio::portfolio_plan(p.backend, kRestarts).size();
}

Expected reference_result(const Problem& p) {
  picola::portfolio::PortfolioOptions fopt;
  fopt.backend = p.backend;
  picola::portfolio::PortfolioResult r =
      picola::portfolio::portfolio_encode(p.set, kRestarts, {}, fopt);
  return {picola::encoding_fingerprint(r.picola.encoding), r.total_cubes};
}

void compute_reference(const Workload& w, const std::vector<size_t>& which,
                       int threads, Reference* ref) {
  std::vector<size_t> todo;
  std::unordered_set<uint64_t> queued;
  for (size_t i : which) {
    uint64_t fp = w.problems[i].fingerprint;
    if (!ref->count(fp) && queued.insert(fp).second) todo.push_back(i);
  }
  // A problem whose reference throws gets no entry, so every reply to it
  // counts as failed.
  std::vector<std::optional<Expected>> results(todo.size());
  std::vector<std::thread> pool;
  std::atomic<size_t> next{0};
  for (int t = 0; t < std::max(1, threads); ++t)
    pool.emplace_back([&]() {
      for (size_t k = next++; k < todo.size(); k = next++) {
        try {
          results[k] = reference_result(w.problems[todo[k]]);
        } catch (const std::exception&) {
        }
      }
    });
  for (auto& th : pool) th.join();
  for (size_t k = 0; k < todo.size(); ++k)
    if (results[k]) (*ref)[w.problems[todo[k]].fingerprint] = *results[k];
}

std::optional<Reference> load_reference(const std::string& path,
                                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return std::nullopt;
  }
  Reference ref;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string fp, enc;
    long cubes = -1;
    if (!(ls >> fp >> enc >> cubes) || cubes < 0) {
      *error = path + ":" + std::to_string(lineno) + ": malformed line";
      return std::nullopt;
    }
    ref[std::stoull(fp, nullptr, 16)] = {std::stoull(enc, nullptr, 16),
                                         cubes};
  }
  return ref;
}

bool save_reference(const std::string& path, const std::string& header,
                    const Workload& w, const Reference& ref) {
  std::ofstream out(path);
  out << header;
  char buf[64];
  for (const auto& p : w.problems) {
    auto it = ref.find(p.fingerprint);
    if (it == ref.end()) continue;
    std::snprintf(buf, sizeof buf, "%016llx %016llx %ld\n",
                  static_cast<unsigned long long>(p.fingerprint),
                  static_cast<unsigned long long>(it->second.enc),
                  it->second.cubes);
    out << buf;
  }
  return static_cast<bool>(out);
}

bool reply_matches(const Reference& ref, uint64_t fingerprint, uint64_t enc,
                   long cubes) {
  auto it = ref.find(fingerprint);
  return it != ref.end() && it->second.enc == enc &&
         it->second.cubes == cubes;
}

bool percentile_supported(double p, size_t n) {
  if (n == 0 || p <= 0 || p > 100) return false;
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  return n - rank >= kSamplesBeyondPercentile;
}

std::optional<double> percentile(std::vector<double> values, double p) {
  if (!percentile_supported(p, values.size())) return std::nullopt;
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size()));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  return values[mid];
}

bool phase_done(double elapsed_s, size_t completed, double seconds,
                size_t min_requests, double hard_cap_s) {
  if (elapsed_s >= hard_cap_s) return true;
  return elapsed_s >= seconds && completed >= min_requests;
}

}  // namespace perfbench
