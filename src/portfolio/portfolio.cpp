#include "portfolio/portfolio.h"

#include <stdexcept>

#include "obs/obs.h"

namespace picola::portfolio {

PortfolioResult portfolio_encode(const ConstraintSet& cs, int restarts,
                                 const PicolaOptions& popt,
                                 const PortfolioOptions& fopt) {
  PICOLA_OBS_SPAN(span, "portfolio/encode");
  std::vector<BackendTask> plan = portfolio_plan(fopt.backend, restarts);
  std::shared_ptr<const CancelToken> cancel = popt.cancel;

  PortfolioResult res;
  res.outcomes.reserve(plan.size());
  for (const BackendTask& task : plan) {
    // A plan's picola slots come first.  When restart 0 met no tie, every
    // picola restart computes its codes and cost (docs/ALGORITHM.md,
    // "Tie-free restarts"), so the other slots take copies of its outcome.
    if (task.kind == BackendKind::kPicola && task.restart > 0 &&
        res.outcomes[0].result.stats.tie_free) {
      res.outcomes.push_back(res.outcomes[0]);
      continue;
    }
    res.outcomes.push_back(run_backend_task(cs, popt, fopt, task, cancel));
  }

  int winner = reduce_outcomes(res.outcomes);
  if (winner < 0) {
    std::string why = "portfolio: no backend produced an encoding";
    for (const BackendOutcome& o : res.outcomes)
      if (!o.error.empty()) { why += ": " + o.error; break; }
    throw std::runtime_error(why);
  }
  const BackendOutcome& best = res.outcomes[static_cast<size_t>(winner)];
  res.picola = best.result;
  res.total_cubes = best.total_cubes;
  res.backend = best.backend;
  PICOLA_OBS_COUNT("portfolio/encodes", 1);
  return res;
}

}  // namespace picola::portfolio
