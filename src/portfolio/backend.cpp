#include "portfolio/backend.h"

#include "check/verifier.h"
#include "encoders/annealing.h"
#include "eval/constraint_eval.h"
#include "obs/obs.h"
#include "sat/encode.h"

namespace picola::portfolio {

const char* backend_kind_name(BackendKind k) {
  switch (k) {
    case BackendKind::kPicola: return "picola";
    case BackendKind::kSat: return "sat";
    case BackendKind::kAnneal: return "anneal";
    case BackendKind::kPortfolio: return "portfolio";
  }
  return "?";
}

std::optional<BackendKind> parse_backend_kind(std::string_view name) {
  if (name == "picola") return BackendKind::kPicola;
  if (name == "sat") return BackendKind::kSat;
  if (name == "anneal") return BackendKind::kAnneal;
  if (name == "portfolio") return BackendKind::kPortfolio;
  return std::nullopt;
}

bool portfolio_options_equal(const PortfolioOptions& a,
                             const PortfolioOptions& b) {
  return a.backend == b.backend &&
         a.sat_max_conflicts == b.sat_max_conflicts &&
         a.anneal_seed == b.anneal_seed;
}

std::vector<BackendTask> portfolio_plan(BackendKind backend, int restarts) {
  restarts = restarts < 1 ? 1 : restarts;
  std::vector<BackendTask> plan;
  if (backend == BackendKind::kPicola || backend == BackendKind::kPortfolio)
    for (int r = 0; r < restarts; ++r)
      plan.push_back({BackendKind::kPicola, r});
  if (backend == BackendKind::kSat || backend == BackendKind::kPortfolio)
    plan.push_back({BackendKind::kSat, 0});
  if (backend == BackendKind::kAnneal)
    for (int r = 0; r < restarts; ++r)
      plan.push_back({BackendKind::kAnneal, r});
  return plan;
}

namespace {

/// Shared tail of every slot: evaluate, optionally self-check, finalise.
/// Returns the number of constraints scored at one cube, which by the
/// paper's §2 equivalence is the number the encoding satisfies.
int seal_outcome(const ConstraintSet& cs, bool self_check,
                 BackendOutcome* out) {
  if (self_check)
    check::enforce(check::verify_encoding(cs, out->result.encoding),
                   std::string("backend_") +
                       backend_kind_name(out->backend));
  const ConstraintEvalResult eval =
      evaluate_constraints(cs, out->result.encoding);
  out->total_cubes = eval.total_cubes;
  out->feasible = true;
  return eval.satisfied;
}

BackendOutcome run_picola(const ConstraintSet& cs, const PicolaOptions& popt,
                          BackendTask task,
                          std::shared_ptr<const CancelToken> cancel) {
  BackendOutcome out;
  out.backend = BackendKind::kPicola;
  PicolaOptions ro = picola_restart_options(popt, task.restart);
  ro.cancel = std::move(cancel);
  out.result = picola_encode(cs, ro);
  // picola_encode already ran its internal self-checks when asked; the
  // encoding-level check in seal_outcome is cheap and uniform.
  seal_outcome(cs, popt.self_check, &out);
  return out;
}

BackendOutcome run_sat(const ConstraintSet& cs, const PicolaOptions& popt,
                       const PortfolioOptions& fopt,
                       std::shared_ptr<const CancelToken> cancel) {
  BackendOutcome out;
  out.backend = BackendKind::kSat;
  sat::SatExactOptions so;
  so.num_bits = popt.num_bits;
  so.max_conflicts = fopt.sat_max_conflicts;
  so.cancel = std::move(cancel);
  sat::SatExactResult res = sat::sat_exact_encode(cs, so);
  out.sat_stats = res.stats;
  out.sat_solver_calls = res.solver_calls;
  if (!res.feasible) {
    // Proven infeasible means no distinct codes exist at this length.
    out.error = res.proven ? "sat: no encoding at this length (too small "
                             "for " + std::to_string(cs.num_symbols) +
                                 " symbols)"
                           : "sat: conflict budget exhausted";
    return out;
  }
  out.result.encoding = std::move(res.encoding);
  out.result.stats.satisfied_constraints = res.satisfied;
  seal_outcome(cs, popt.self_check, &out);
  return out;
}

BackendOutcome run_anneal(const ConstraintSet& cs, const PicolaOptions& popt,
                          const PortfolioOptions& fopt, BackendTask task,
                          std::shared_ptr<const CancelToken> cancel) {
  BackendOutcome out;
  out.backend = BackendKind::kAnneal;
  AnnealingOptions ao;
  ao.num_bits = popt.num_bits;
  ao.seed = restart_seed(fopt.anneal_seed, task.restart);
  ao.cancel = std::move(cancel);
  AnnealingResult res = annealing_encode(cs, ao);
  out.result.encoding = std::move(res.encoding);
  out.result.stats.satisfied_constraints =
      seal_outcome(cs, popt.self_check, &out);
  return out;
}

}  // namespace

BackendOutcome run_backend_task(const ConstraintSet& cs,
                                const PicolaOptions& popt,
                                const PortfolioOptions& fopt, BackendTask task,
                                std::shared_ptr<const CancelToken> cancel) {
  PICOLA_OBS_SPAN(span, "portfolio/backend_task");
  switch (task.kind) {
    case BackendKind::kPicola:
      // No catch: picola failures keep their existing job-fatal semantics.
      return run_picola(cs, popt, task, std::move(cancel));
    case BackendKind::kSat:
    case BackendKind::kAnneal:
      try {
        return task.kind == BackendKind::kSat
                   ? run_sat(cs, popt, fopt, std::move(cancel))
                   : run_anneal(cs, popt, fopt, task, std::move(cancel));
      } catch (const CancelledError&) {
        throw;  // cancellation aborts the whole job
      } catch (const check::SelfCheckError&) {
        throw;  // a backend produced a bad encoding: never degrade this
      } catch (const std::exception& e) {
        BackendOutcome out;
        out.backend = task.kind;
        out.error = e.what();
        PICOLA_OBS_COUNT("portfolio/slot_failures", 1);
        return out;
      }
    case BackendKind::kPortfolio: break;  // not a slot kind
  }
  BackendOutcome out;
  out.error = "portfolio: invalid slot kind";
  return out;
}

int reduce_outcomes(const std::vector<BackendOutcome>& outcomes) {
  int winner = -1;
  for (int i = 0; i < static_cast<int>(outcomes.size()); ++i) {
    const BackendOutcome& o = outcomes[static_cast<size_t>(i)];
    if (!o.feasible) continue;
    if (winner < 0 ||
        o.total_cubes < outcomes[static_cast<size_t>(winner)].total_cubes)
      winner = i;
  }
  return winner;
}

}  // namespace picola::portfolio
