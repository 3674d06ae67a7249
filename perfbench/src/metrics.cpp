#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

namespace perfbench {

using picola::net::JsonValue;

namespace {

// One entry of a server registry ("net" or "service") in a metrics
// snapshot; `kind` is "counters", "gauges" or "histograms".
const JsonValue* registry_entry(const std::optional<JsonValue>& m,
                                const char* registry, const char* kind,
                                const std::string& key) {
  const JsonValue* r = m ? m->find(registry) : nullptr;
  const JsonValue* group = r ? r->find(kind) : nullptr;
  return group ? group->find(key) : nullptr;
}

// Change over the traced phase of a counter or gauge, or of one field of
// a histogram.
double delta(const Pass& p, const char* registry, const char* kind,
             const std::string& key, const char* field = nullptr) {
  const JsonValue* a = registry_entry(p.metrics_before, registry, kind, key);
  const JsonValue* b = registry_entry(p.metrics_after, registry, kind, key);
  if (field) {
    a = a ? a->find(field) : nullptr;
    b = b ? b->find(field) : nullptr;
  }
  return a && b ? b->as_double() - a->as_double() : 0;
}

// Mean of a server histogram over the traced phase, in ms.
double histogram_mean_ms(const Pass& p, const std::string& key) {
  const double n = delta(p, "service", "histograms", key, "count");
  return n > 0 ? delta(p, "service", "histograms", key, "sum_ns") / n / 1e6
               : 0;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

}  // namespace

double value_of(const std::vector<Metric>& ms, const std::string& name) {
  for (const auto& m : ms)
    if (m.name == name) return m.value;
  return 0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void mark_good(const Workload& w, const Reference& ref,
               std::vector<Reply>* replies) {
  for (Reply& r : *replies)
    r.good = r.ok && reply_matches(ref, w.problems[r.problem].fingerprint,
                                   r.enc, r.cubes);
}

EndToEnd end_to_end(const Workload& w, const Pass& pass, const Reference& ref,
                    bool default_seed) {
  EndToEnd e;
  e.faults = pass.faults;
  e.attempted = pass.measured.size();
  std::vector<double> latency;
  size_t good = 0;
  for (const Reply& r : pass.measured) {
    latency.push_back(r.good ? r.latency_ms
                             : std::numeric_limits<double>::infinity());
    if (r.good) ++good;
  }
  e.failed = e.attempted - good;
  for (const Reply& r : pass.warmup)
    if (!r.good)
      e.faults.push_back("set-up reply for " + w.problems[r.problem].label +
                           " is wrong or failed");

  auto pct = [&](double p) {
    auto v = percentile(latency, p);
    if (!v) {
      e.faults.push_back("only " + std::to_string(latency.size()) +
                           " samples: the p" + fmt(p) + " is not supported");
      return kFailedLatencyMs;
    }
    return std::isinf(*v) ? kFailedLatencyMs : *v;
  };
  const std::string samples = "n=" + std::to_string(latency.size());

  // cubes_total: the served cubes of the first ok reply for each problem
  // of the quality set, from the measured phase or the set-up pass.  A
  // reply that differs from the reference counts here as served (and as
  // failed above), so a worse result raises cubes_total.
  std::map<size_t, long> cubes;
  for (const auto* list : {&pass.measured, &pass.warmup})
    for (const Reply& r : *list)
      if (r.ok) cubes.emplace(r.problem, r.cubes);
  long cubes_total = 0;
  long expected_total = 0;
  for (size_t q : w.quality_set) {
    auto x = ref.find(w.problems[q].fingerprint);
    if (x != ref.end()) expected_total += x->second.cubes;
    auto it = cubes.find(q);
    if (it == cubes.end())
      e.faults.push_back("no ok reply for " + w.problems[q].label);
    else
      cubes_total += it->second;
  }

  const double elapsed = std::max(pass.elapsed_s, 1e-9);
  std::string setup_note = "median of " + std::to_string(pass.setup_s.size());
  if (!pass.setup_s.empty()) {
    const auto [lo, hi] =
        std::minmax_element(pass.setup_s.begin(), pass.setup_s.end());
    setup_note += ", range " + fmt(*lo) + " to " + fmt(*hi);
  }
  e.metrics = {
      {"jobs_per_s", static_cast<double>(good) / elapsed, "1/s",
       std::to_string(good) + " in " + fmt(elapsed) + " s"},
      {"latency_p50_ms", pct(50), "ms", samples},
      {"latency_p90_ms", pct(90), "ms", samples},
      {"cpu_ms_per_job", pass.cpu_s * 1000 / std::max<size_t>(good, 1), "ms",
       fmt(pass.cpu_s) + " s server CPU"},
      {"cubes_total", static_cast<double>(cubes_total), "cubes",
       std::to_string(w.quality_set.size()) + " problems, " +
           (default_seed ? "committed " : "reference ") +
           std::to_string(expected_total)},
      {"ok_share",
       e.attempted ? static_cast<double>(good) / e.attempted : 0, "ratio",
       "failed_share=" +
           fmt(e.attempted ? static_cast<double>(e.failed) / e.attempted
                           : 1) +
           " (" + std::to_string(e.failed) + "/" +
           std::to_string(e.attempted) + ")"},
      {"setup_s", median(pass.setup_s), "s", setup_note},
      {"rss_mb", median(pass.rss_mb), "MB",
       "median of " + std::to_string(pass.rss_mb.size()) +
           " samples; peak (VmHWM) " + fmt(pass.peak_rss_mb)},
  };
  return e;
}

Properties properties(const Workload& w, const Pass& pass) {
  Properties p;
  size_t ok = 0, hits = 0, le7 = 0, kiss = 0, repeats = 0;
  double slots = 0;
  std::set<size_t> sent;
  for (const Reply& r : pass.warmup) sent.insert(r.problem);
  for (const Reply& r : pass.measured) {
    const Problem& prob = w.problems[r.problem];
    slots += static_cast<double>(slots_per_job(prob));
    if (prob.kind == TextKind::kKiss) {
      ++kiss;
      if (!sent.insert(r.problem).second) ++repeats;
    }
    if (!r.ok) continue;
    ++ok;
    if (r.cached) ++hits;
    if (r.bits <= 7) ++le7;
  }
  auto share = [](size_t a, size_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  p.hit_share = share(hits, ok);
  p.derive_repeat_share = share(repeats, kiss);
  p.nv_le7_share = share(le7, ok);
  p.slots_per_job =
      pass.measured.empty() ? 0 : slots / static_cast<double>(pass.measured.size());
  return p;
}

std::vector<Metric> per_layer(const Workload& w, const Pass& pass,
                              const ReplayFigures& f) {
  std::vector<double> overhead, job_ms;
  double bytes = 0;
  size_t errors = 0, computed = 0, sat_wins = 0, anneal_wins = 0;
  for (const Reply& r : pass.measured) {
    bytes += static_cast<double>(r.bytes);
    if (!r.ok) {
      ++errors;
      continue;
    }
    overhead.push_back(r.latency_ms - r.wall_ms);
    if (r.cached) continue;
    ++computed;
    job_ms.push_back(r.wall_ms);
    if (r.backend == picola::portfolio::BackendKind::kSat) ++sat_wins;
    if (r.backend == picola::portfolio::BackendKind::kAnneal) ++anneal_wins;
  }
  const Properties props = properties(w, pass);
  std::vector<double> pings = pass.ping_ms;
  std::sort(pings.begin(), pings.end());
  const double ping_p90 =
      pings.empty() ? 0
                    : pings[static_cast<size_t>(
                          std::ceil(0.9 * static_cast<double>(pings.size()))) -
                            1];
  const double misses = delta(pass, "service", "counters", "service/cache_misses");
  const double n = static_cast<double>(pass.measured.size());
  return {
      {"net.overhead_ms", median(overhead), "ms", ""},
      {"net.ping_p90_ms", ping_p90, "ms",
       "n=" + std::to_string(pass.ping_ms.size())},
      {"net.bytes_per_request", n > 0 ? bytes / n : 0, "bytes", ""},
      {"net.error_replies",
       static_cast<double>(errors) + delta(pass, "net", "counters", "net/sheds"),
       "count", ""},
      {"problem_io.con_parse_us", median(f.con_parse_us), "us", ""},
      {"problem_io.kiss_parse_ms", median(f.kiss_parse_ms), "ms", ""},
      {"constraints.derive_ms", median(f.derive_ms), "ms", ""},
      {"constraints.derive_repeat_share", props.derive_repeat_share, "ratio",
       ""},
      {"service.canonicalize_us", median(f.canonicalize_us), "us", ""},
      {"service.cache_probe_us", median(f.cache_probe_us), "us", ""},
      {"service.hit_share", props.hit_share, "ratio", ""},
      {"service.queue_wait_ms", histogram_mean_ms(pass, "pool/queue_wait"),
       "ms", ""},
      {"service.job_ms", median(job_ms), "ms",
       "n=" + std::to_string(job_ms.size())},
      {"service.tasks_per_job",
       ratio(delta(pass, "service", "counters", "pool/tasks_executed"), misses),
       "count", ""},
      {"persist.recover_ms", median(pass.recover_ms), "ms", ""},
      {"persist.recovered_entries",
       static_cast<double>(pass.recovered_entries), "count", ""},
      {"persist.journal_bytes_per_insert",
       ratio(delta(pass, "service", "gauges", "persist/journal_bytes"), misses),
       "bytes", ""},
      {"persist.snapshot_ms", pass.shutdown_ms, "ms", ""},
      {"portfolio.picola_slot_ms", histogram_mean_ms(pass, "portfolio/picola"),
       "ms", ""},
      {"portfolio.sat_slot_ms", histogram_mean_ms(pass, "portfolio/sat"), "ms",
       ""},
      {"portfolio.anneal_slot_ms", histogram_mean_ms(pass, "portfolio/anneal"),
       "ms", ""},
      {"portfolio.sat_win_share",
       ratio(static_cast<double>(sat_wins), static_cast<double>(computed)),
       "ratio", ""},
      {"portfolio.anneal_win_share",
       ratio(static_cast<double>(anneal_wins), static_cast<double>(computed)),
       "ratio", ""},
      {"portfolio.margin_cubes", static_cast<double>(f.margin_cubes), "cubes",
       ""},
      {"core.encode_ms", median(f.encode_ms), "ms", ""},
      {"core.classify_calls",
       ratio(static_cast<double>(f.classify_calls),
             static_cast<double>(f.picola_slots)),
       "count", ""},
      {"eval.score_ms", median(f.score_ms), "ms", ""},
      {"eval.slot_share",
       ratio(f.picola_eval_ms, f.picola_encode_ms + f.picola_eval_ms), "ratio",
       ""},
      {"eval.single_cube_share",
       ratio(static_cast<double>(f.single_cube),
             static_cast<double>(f.constraints_scored)),
       "ratio", ""},
      {"eval.nv_le7_share", props.nv_le7_share, "ratio", ""},
      {"espresso.calls_per_job",
       ratio(static_cast<double>(f.constraints_scored),
             static_cast<double>(f.jobs)),
       "count", ""},
      {"espresso.constraint_us", median(f.constraint_us), "us", ""},
      {"sat.conflicts_per_slot",
       ratio(delta(pass, "service", "counters", "sat/conflicts"),
             delta(pass, "service", "histograms", "portfolio/sat", "count")),
       "count", ""},
      {"sat.budget_exhausted_share",
       ratio(static_cast<double>(f.sat_budget_exhausted),
             static_cast<double>(f.sat_slots)),
       "ratio", ""},
      {"encoders.anneal_ms", median(f.anneal_ms), "ms", ""},
      {"encoders.anneal_moves",
       ratio(static_cast<double>(f.anneal_moves),
             static_cast<double>(f.anneal_slots)),
       "count", ""},
  };
}

}  // namespace perfbench
