#include "replay.h"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "base/problem_io.h"
#include "constraints/derive.h"
#include "encoders/annealing.h"
#include "encoders/restart.h"
#include "eval/constraint_eval.h"
#include "kiss/kiss_io.h"
#include "portfolio/backend.h"
#include "sat/encode.h"
#include "service/job.h"
#include "service/result_cache.h"
#include "service/service.h"

namespace perfbench {

namespace pf = picola::portfolio;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t Tracer::begin(const char* name, int64_t request) {
  Span s;
  s.name = name;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.request = request;
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void Tracer::end(uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<uint64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_)
    if (s.parent) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const uint64_t dur = s.end_ns - s.start_ns;
    const uint64_t kids = child_ns[s.id];
    self[s.name] += static_cast<double>(dur > kids ? dur - kids : 0) / 1e6;
  }
  return self;
}

namespace {

double elapsed_ms(const Tracer& t, uint32_t id) {
  const Span& s = t.spans()[id - 1];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

struct SlotOutcome {
  picola::Encoding encoding;
  bool feasible = false;
  long cubes = 0;
};

// One backend slot exactly as portfolio::run_backend_task runs it, with
// the encoder and the scoring as separate spans.
SlotOutcome run_slot(const picola::CanonicalJob& cj, pf::BackendTask task,
                     int64_t req, Tracer& t, ReplayFigures* f) {
  ScopedSpan slot(t, "portfolio.slot", req);
  SlotOutcome out;
  if (task.kind == pf::BackendKind::kPicola) {
    const uint32_t id = t.begin("core.encode", req);
    picola::PicolaResult r = picola::picola_encode(
        cj.set, picola::picola_restart_options(cj.options, task.restart));
    t.end(id);
    f->encode_ms.push_back(elapsed_ms(t, id));
    f->picola_encode_ms += f->encode_ms.back();
    f->classify_calls += r.stats.classify_calls;
    ++f->picola_slots;
    out.encoding = std::move(r.encoding);
    out.feasible = true;
  } else if (task.kind == pf::BackendKind::kSat) {
    picola::sat::SatExactOptions so;
    so.num_bits = cj.options.num_bits;
    so.card = cj.portfolio.sat_card;
    so.distinct = cj.portfolio.sat_distinct;
    so.sweep = cj.portfolio.sat_sweep;
    so.max_conflicts = cj.portfolio.sat_max_conflicts;
    picola::sat::SatExactResult r;
    {
      ScopedSpan span(t, "sat.encode", req);
      r = picola::sat::sat_exact_encode(cj.set, so);
    }
    ++f->sat_slots;
    if (!r.feasible && !r.proven) ++f->sat_budget_exhausted;
    out.encoding = std::move(r.encoding);
    out.feasible = r.feasible;
  } else {
    picola::AnnealingOptions ao;
    ao.num_bits = cj.options.num_bits;
    ao.seed = picola::restart_seed(cj.portfolio.anneal_seed, task.restart);
    const uint32_t id = t.begin("encoders.anneal", req);
    picola::AnnealingResult r = picola::annealing_encode(cj.set, ao);
    t.end(id);
    f->anneal_ms.push_back(elapsed_ms(t, id));
    ++f->anneal_slots;
    f->anneal_moves += r.moves_tried;
    out.encoding = std::move(r.encoding);
    out.feasible = true;
  }
  if (!out.feasible) return out;
  const uint32_t score = t.begin("eval.score", req);
  const picola::ConstraintEvalResult e =
      picola::evaluate_constraints(cj.set, out.encoding);
  t.end(score);
  f->score_ms.push_back(elapsed_ms(t, score));
  if (task.kind == pf::BackendKind::kPicola)
    f->picola_eval_ms += f->score_ms.back();
  out.cubes = e.total_cubes;
  f->constraints_scored += static_cast<long>(e.per_constraint.size());
  f->single_cube += e.satisfied;
  return out;
}

// espresso.constraint_us: every constraint_cube_count call of a scored
// encoding, timed in a pass of its own after the slot.  evaluate_constraints
// is one public call, so the calls inside it cannot be timed from outside;
// this pass repeats them and is no span (it is not the server's work).
// The per-constraint counts must add up to the slot's total.
void time_constraints(const picola::ConstraintSet& set, const SlotOutcome& o,
                      ReplayFigures* f) {
  long sum = 0;
  for (const auto& c : set.constraints) {
    const uint64_t t0 = now_ns();
    sum += picola::constraint_cube_count(c, o.encoding);
    f->constraint_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  if (sum != o.cubes) ++f->mismatches;
}

picola::Problem parse(const Problem& p, int64_t req, Tracer& t,
                      ReplayFigures* f) {
  std::string error;
  std::optional<picola::Problem> parsed;
  const uint32_t id = t.begin("problem_io.parse", req);
  if (p.kind == TextKind::kCon) {
    parsed = picola::parse_problem_text(p.text, &error);
  } else {
    // parse_problem_text's KISS2 path, with the derivation as a child.
    picola::sniff_file_kind(p.text);
    picola::KissParseResult k = picola::parse_kiss(p.text);
    if (k.ok()) {
      const uint32_t d = t.begin("constraints.derive", req);
      parsed = picola::Problem{picola::derive_face_constraints(k.fsm).set,
                               k.fsm.state_names};
      t.end(d);
      f->derive_ms.push_back(elapsed_ms(t, d));
    } else {
      error = k.error;
    }
  }
  t.end(id);
  if (!parsed) throw std::runtime_error(p.label + ": " + error);
  if (p.kind == TextKind::kCon)
    f->con_parse_us.push_back(elapsed_ms(t, id) * 1000);
  else
    f->kiss_parse_ms.push_back(elapsed_ms(t, id));
  return std::move(*parsed);
}

}  // namespace

ReplayFigures replay(const Workload& w, const std::vector<size_t>& which,
                     const Reference& ref, Tracer* tracer) {
  Tracer& t = *tracer;
  ReplayFigures f;
  picola::ResultCache cache(1024);
  std::vector<std::pair<int64_t, picola::CanonicalJob>> cached_jobs;
  for (size_t i : which) {
    const Problem& p = w.problems[i];
    const auto req = static_cast<int64_t>(i);
    picola::Job job;
    job.set = parse(p, req, t, &f).set;
    job.restarts = kRestarts;
    job.portfolio.backend = p.backend;
    const uint32_t id = t.begin("service.canonicalize", req);
    picola::CanonicalJob cj = picola::canonicalize(job);
    t.end(id);
    f.canonicalize_us.push_back(elapsed_ms(t, id) * 1000);

    const auto plan = pf::portfolio_plan(cj.portfolio.backend, cj.restarts);
    int winner = -1;
    long best_picola = -1;
    std::vector<SlotOutcome> outcomes;
    for (size_t s = 0; s < plan.size(); ++s) {
      outcomes.push_back(run_slot(cj, plan[s], req, t, &f));
      const SlotOutcome& o = outcomes.back();
      if (!o.feasible) continue;
      time_constraints(cj.set, o, &f);
      // portfolio::reduce_outcomes: lowest cubes, then lowest plan index.
      if (winner < 0 || o.cubes < outcomes[static_cast<size_t>(winner)].cubes)
        winner = static_cast<int>(s);
      if (plan[s].kind == pf::BackendKind::kPicola &&
          (best_picola < 0 || o.cubes < best_picola))
        best_picola = o.cubes;
    }
    ++f.jobs;
    if (winner < 0) {
      ++f.mismatches;
      continue;
    }
    const SlotOutcome& win = outcomes[static_cast<size_t>(winner)];
    if (best_picola >= 0) f.margin_cubes += best_picola - win.cubes;
    if (!reply_matches(ref, p.fingerprint,
                       picola::encoding_fingerprint(win.encoding), win.cubes))
      ++f.mismatches;
    picola::CachedResult cached;
    cached.picola.encoding = win.encoding;
    cached.total_cubes = win.cubes;
    cache.insert(cj, std::move(cached));
    cached_jobs.emplace_back(req, std::move(cj));
  }
  for (const auto& [req, cj] : cached_jobs) {
    const uint32_t id = t.begin("service.cache_probe", req);
    cache.lookup(cj);
    t.end(id);
    f.cache_probe_us.push_back(elapsed_ms(t, id) * 1000);
  }
  return f;
}

size_t replay_recovery(const std::string& cache_dir, int reps,
                       Tracer* tracer, std::vector<double>* recover_ms) {
  picola::ServiceOptions opt;
  opt.num_threads = 1;
  opt.cache_dir = cache_dir;
  opt.snapshot_interval_s = -1;
  size_t entries = 0;
  for (int r = 0; r < reps; ++r) {
    const uint32_t id = tracer->begin("persist.recover", -1);
    auto service = std::make_unique<picola::EncodingService>(opt);
    tracer->end(id);
    recover_ms->push_back(elapsed_ms(*tracer, id));
    entries = service->cache().size();
  }
  return entries;
}

}  // namespace perfbench
