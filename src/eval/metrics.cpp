#include "eval/metrics.h"

#include <cstdio>
#include <sstream>

namespace picola {

EncodingQuality encoding_quality(const ConstraintSet& cs, const Encoding& enc) {
  EncodingQuality q;
  q.satisfied_constraints = count_satisfied_constraints(cs, enc);
  q.satisfied_dichotomies = count_satisfied_dichotomies(cs, enc);
  q.total_dichotomies = cs.num_seed_dichotomies();
  return q;
}

std::string format_ratio(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", x);
  return buf;
}

std::string picola_stats_json(const PicolaStats& s) {
  std::ostringstream os;
  os << "{\"guides_added\":" << s.guides_added
     << ",\"constraints_deactivated\":" << s.constraints_deactivated
     << ",\"satisfied_constraints\":" << s.satisfied_constraints
     << ",\"classify_calls\":" << s.classify_calls
     << ",\"classify_ms\":" << s.classify_ms << ",\"guide_ms\":" << s.guide_ms
     << ",\"solve_ms\":" << s.solve_ms << ",\"infeasible_per_column\":[";
  for (size_t i = 0; i < s.infeasible_per_column.size(); ++i)
    os << (i ? "," : "") << s.infeasible_per_column[i];
  os << "],\"column_ms\":[";
  for (size_t i = 0; i < s.column_ms.size(); ++i)
    os << (i ? "," : "") << s.column_ms[i];
  os << "]}";
  return os.str();
}

}  // namespace picola
