// Extended encoder comparison (beyond the paper's tables): every encoder in
// the library on every Table I problem, reporting satisfied constraints,
// satisfied seed dichotomies and the paper's cube metric.  The exact
// encoder runs as an oracle on the problems small enough for it.

#include <cstdio>
#include <optional>
#include <string>

#include "check/oracle.h"
#include "constraints/derive.h"
#include "core/picola.h"
#include "encoders/annealing.h"
#include "encoders/enc_like.h"
#include "encoders/nova_like.h"
#include "encoders/trivial.h"
#include "eval/constraint_eval.h"
#include "eval/metrics.h"
#include "kiss/benchmarks.h"

using namespace picola;

namespace {

struct Entry {
  const char* name;
  long cubes = 0;
  long satisfied = 0;
  long dichotomies = 0;
  double ms = 0;
};

}  // namespace

int main() {
  Entry entries[] = {{"picola"},  {"picola-x8"},  {"nova-like"},
                     {"enc-like"}, {"anneal"},     {"gray"},
                     {"sequential"}, {"random"}};
  long exact_cubes = 0;
  int exact_solved = 0;
  long picola_on_exact = 0;

  std::printf("Encoder comparison over the %zu Table I problems\n",
              table1_benchmarks().size());
  for (const std::string& name : table1_benchmarks()) {
    Fsm fsm = make_benchmark(name);
    DerivedConstraints d = derive_face_constraints(fsm);
    const ConstraintSet& cs = d.set;
    const int n = cs.num_symbols;

    for (Entry& e : entries) {
      Stopwatch sw;
      Encoding enc;
      if (std::string(e.name) == "picola")
        enc = picola_encode(cs).encoding;
      else if (std::string(e.name) == "picola-x8")
        enc = picola_encode_best(cs, 8).encoding;
      else if (std::string(e.name) == "nova-like")
        enc = nova_like_encode(cs).encoding;
      else if (std::string(e.name) == "enc-like")
        enc = enc_like_encode(cs).encoding;
      else if (std::string(e.name) == "anneal")
        enc = annealing_encode(cs).encoding;
      else if (std::string(e.name) == "gray")
        enc = gray_encoding(n);
      else if (std::string(e.name) == "sequential")
        enc = sequential_encoding(n);
      else
        enc = random_encoding(n, 12345);
      e.ms += sw.elapsed_ms();
      EncodingQuality q = encoding_quality(cs, enc);
      e.cubes += evaluate_constraints(cs, enc).total_cubes;
      e.satisfied += q.satisfied_constraints;
      e.dichotomies += q.satisfied_dichotomies;
    }

    // Exact oracle on the tiny problems.
    if (n <= 8) {
      check::OracleOptions o;
      o.max_candidates = check::kExactEncoderCandidates;
      o.min_cubes = true;
      exact_cubes += check::oracle_solve(cs, 0, o).min_total_cubes;
      ++exact_solved;
      picola_on_exact +=
          evaluate_constraints(cs, picola_encode(cs).encoding).total_cubes;
    }
  }

  std::printf("\n%-12s %10s %12s %14s %10s\n", "encoder", "cubes",
              "satisfied", "dichotomies", "ms");
  for (const Entry& e : entries)
    std::printf("%-12s %10ld %12ld %14ld %10.1f\n", e.name, e.cubes,
                e.satisfied, e.dichotomies, e.ms);
  std::printf("\nExact oracle on the %d problems with <= 8 symbols: "
              "optimum %ld cubes, PICOLA %ld\n",
              exact_solved, exact_cubes, picola_on_exact);
  return 0;
}
