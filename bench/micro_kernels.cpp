// Microbenchmarks of the computational kernels: tautology, complement,
// expand, full espresso minimisation, symbolic constraint derivation, and
// PICOLA column generation.  The custom main() additionally runs three
// gates: with instrumentation compiled in but switched off, the implied
// cost of the span guards (obs) and of the fault hooks must each stay
// under 1% of a picola_encode run on the Table-1 instances, and scoring
// an encoding with evaluate_constraints must cost at most a quarter of
// scoring it with the reference evaluator, summed over the 31 Table I
// instances.  It then reports, without a gate, what multi-start costs
// per instance class: Σ picola_encode_best over Table I split into tbk
// (tie-free, so restart 0 answers alone) and the rest, and the share of
// tie-free runs in generated sets of growing constraint counts.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <random>
#include <string>

#include "check/instance_gen.h"
#include "check/reference_eval.h"
#include "constraints/derive.h"
#include "core/picola.h"
#include "espresso/espresso.h"
#include "eval/constraint_eval.h"
#include "fault/fault.h"
#include "kiss/benchmarks.h"
#include "obs/obs.h"

namespace picola {
namespace {

Cover random_cover(const CubeSpace& s, int ncubes, uint32_t seed) {
  std::mt19937 rng(seed);
  Cover f(s);
  for (int i = 0; i < ncubes; ++i) {
    Cube c = Cube::full(s);
    for (int v = 0; v < s.num_vars(); ++v) {
      if (rng() % 5 < 2) continue;
      c.clear_var(s, v);
      c.set(s, v, static_cast<int>(rng() % static_cast<uint32_t>(s.parts(v))));
    }
    f.add(c);
  }
  return f;
}

void BM_Tautology(benchmark::State& state) {
  CubeSpace s = CubeSpace::binary(static_cast<int>(state.range(0)));
  Cover f = random_cover(s, 40, 7);
  f.add(Cube::full(s));  // force a tautology so the check runs fully
  for (auto _ : state) benchmark::DoNotOptimize(esp::is_tautology(f));
}
BENCHMARK(BM_Tautology)->Arg(8)->Arg(16)->Arg(24);

void BM_Complement(benchmark::State& state) {
  CubeSpace s = CubeSpace::binary(static_cast<int>(state.range(0)));
  Cover f = random_cover(s, 20, 13);
  for (auto _ : state) benchmark::DoNotOptimize(esp::complement(f));
}
BENCHMARK(BM_Complement)->Arg(8)->Arg(12)->Arg(16);

void BM_Minimize(benchmark::State& state) {
  CubeSpace s = CubeSpace::binary(static_cast<int>(state.range(0)));
  Cover f = random_cover(s, 30, 21);
  for (auto _ : state)
    benchmark::DoNotOptimize(esp::minimize_cover(f, Cover(s)));
}
BENCHMARK(BM_Minimize)->Arg(6)->Arg(10)->Arg(14);

void BM_DeriveConstraints(benchmark::State& state) {
  static const char* kNames[] = {"lion9", "ex2", "keyb", "planet"};
  Fsm fsm = make_benchmark(kNames[state.range(0)]);
  for (auto _ : state)
    benchmark::DoNotOptimize(derive_face_constraints(fsm).set.size());
  state.SetLabel(kNames[state.range(0)]);
}
BENCHMARK(BM_DeriveConstraints)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_PicolaEncode(benchmark::State& state) {
  static const char* kNames[] = {"lion9", "ex2", "keyb", "planet", "scf"};
  Fsm fsm = make_benchmark(kNames[state.range(0)]);
  DerivedConstraints d = derive_face_constraints(fsm);
  for (auto _ : state)
    benchmark::DoNotOptimize(picola_encode(d.set).encoding.codes);
  state.SetLabel(kNames[state.range(0)]);
}
BENCHMARK(BM_PicolaEncode)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_ConstraintEvaluation(benchmark::State& state) {
  Fsm fsm = make_benchmark("ex2");
  DerivedConstraints d = derive_face_constraints(fsm);
  Encoding e = picola_encode(d.set).encoding;
  for (auto _ : state)
    benchmark::DoNotOptimize(evaluate_constraints(d.set, e).total_cubes);
}
BENCHMARK(BM_ConstraintEvaluation);

void BM_PicolaEncodeObsOn(benchmark::State& state) {
  // Same kernel as BM_PicolaEncode but with metrics collection live, to
  // compare against the switched-off baseline directly.
  static const char* kNames[] = {"lion9", "ex2", "keyb", "planet"};
  Fsm fsm = make_benchmark(kNames[state.range(0)]);
  DerivedConstraints d = derive_face_constraints(fsm);
  obs::set_enabled(true);
  for (auto _ : state)
    benchmark::DoNotOptimize(picola_encode(d.set).encoding.codes);
  obs::set_enabled(false);
  obs::MetricsRegistry::global().reset();
  state.SetLabel(kNames[state.range(0)]);
}
BENCHMARK(BM_PicolaEncodeObsOn)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The <1% gate.  Direct measurement of on-vs-off encode times drowns in
/// run-to-run noise at these instance sizes, so measure the two exact
/// quantities instead: how many span guards one encode executes (from an
/// instrumented run's histogram counts) and what a switched-off guard
/// costs (tight loop), then bound the implied overhead.
bool run_obs_overhead_check() {
  static const char* kNames[] = {"lion9", "ex2", "keyb", "planet"};

  // Cost of one PICOLA_OBS_SPAN with the master switch off.
  constexpr int kGuardReps = 1000000;
  uint64_t g0 = steady_now_ns();
  for (int i = 0; i < kGuardReps; ++i) {
    PICOLA_OBS_SPAN(span, "bench/guard");
    benchmark::DoNotOptimize(&span);
  }
  double guard_ns = static_cast<double>(steady_now_ns() - g0) / kGuardReps;

  std::printf("\nobs overhead gate (guard %.2f ns when disabled):\n",
              guard_ns);
  bool ok = true;
  for (const char* name : kNames) {
    DerivedConstraints d = derive_face_constraints(make_benchmark(name));

    // Spans per encode, counted exactly by an instrumented run: every
    // span feeds exactly one histogram record.
    obs::MetricsRegistry::global().reset();
    obs::set_enabled(true);
    picola_encode(d.set);
    uint64_t spans = 0;
    for (const auto& [hist_name, snap] :
         obs::MetricsRegistry::global().histogram_snapshots())
      spans += snap.count;
    obs::set_enabled(false);
    obs::MetricsRegistry::global().reset();

    // Mean switched-off encode time.
    constexpr int kReps = 5;
    uint64_t t0 = steady_now_ns();
    for (int i = 0; i < kReps; ++i)
      benchmark::DoNotOptimize(picola_encode(d.set).encoding.codes);
    double encode_ns = static_cast<double>(steady_now_ns() - t0) / kReps;

    double overhead = 100.0 * (static_cast<double>(spans) * guard_ns) /
                      encode_ns;
    bool pass = overhead < 1.0;
    ok &= pass;
    std::printf(
        "  %-8s %8llu spans/encode, %10.0f ns/encode -> %6.4f%% %s\n", name,
        static_cast<unsigned long long>(spans), encode_ns, overhead,
        pass ? "OK" : "FAIL (>= 1%)");
  }
  return ok;
}

/// Same methodology for the fault hooks (fault/fault.h): cost of one
/// disabled PICOLA_FAULT_POINT (tight loop, no plan installed) times the
/// consults one encode performs (counted exactly by an installed empty
/// plan — expected 0: the hooks live in the serving stack, not the
/// encode kernel), bounded against the encode time.
bool run_fault_overhead_check() {
  static const char* kNames[] = {"lion9", "ex2", "keyb", "planet"};

  constexpr int kGuardReps = 1000000;
  uint64_t g0 = steady_now_ns();
  for (int i = 0; i < kGuardReps; ++i) {
    fault::Action a = PICOLA_FAULT_POINT("bench/guard");
    benchmark::DoNotOptimize(&a);
  }
  double guard_ns = static_cast<double>(steady_now_ns() - g0) / kGuardReps;

  std::printf("\nfault overhead gate (guard %.2f ns when disabled):\n",
              guard_ns);
  bool ok = true;
  for (const char* name : kNames) {
    DerivedConstraints d = derive_face_constraints(make_benchmark(name));

    // Consults per encode: an installed plan with no rules counts every
    // fault point the encode path touches without injecting anything.
    auto plan = std::make_shared<fault::FaultPlan>(0);
    fault::install(plan);
    picola_encode(d.set);
    uint64_t consults = 0;
    for (const auto& [point, st] : plan->stats()) consults += st.calls;
    fault::install(nullptr);

    constexpr int kReps = 5;
    uint64_t t0 = steady_now_ns();
    for (int i = 0; i < kReps; ++i)
      benchmark::DoNotOptimize(picola_encode(d.set).encoding.codes);
    double encode_ns = static_cast<double>(steady_now_ns() - t0) / kReps;

    double overhead =
        100.0 * (static_cast<double>(consults) * guard_ns) / encode_ns;
    bool pass = overhead < 1.0;
    ok &= pass;
    std::printf(
        "  %-8s %8llu consults/encode, %10.0f ns/encode -> %6.4f%% %s\n",
        name, static_cast<unsigned long long>(consults), encode_ns, overhead,
        pass ? "OK" : "FAIL (>= 1%)");
  }
  return ok;
}

/// The cost-kernel gate: over the 31 Table I instances, scoring the
/// PICOLA encoding with evaluate_constraints must take at most
/// kMaxEvalShare of the time the reference evaluator takes on the same
/// encodings (check/reference_eval.h: one full ESPRESSO run per
/// constraint, the evaluator before the kernel).  Both sides are eval,
/// timed in this process, kReps calls each per instance, so the bound
/// does not move when the encoder gets faster; it sat near 0.08 when set.
/// picola_encode is timed beside them and every instance is printed, so
/// the output also keeps the encode/eval split.
bool run_eval_cost_check() {
  constexpr double kMaxEvalShare = 0.25;
  std::printf(
      "\neval cost gate (sum evaluate_constraints <= %.2f x sum reference "
      "evaluator, Table I):\n",
      kMaxEvalShare);
  constexpr int kReps = 5;
  double encode_total_ns = 0, eval_total_ns = 0, reference_total_ns = 0;
  for (const std::string& name : table1_benchmarks()) {
    DerivedConstraints d = derive_face_constraints(make_benchmark(name));
    Encoding e;
    uint64_t t0 = steady_now_ns();
    for (int i = 0; i < kReps; ++i) e = picola_encode(d.set).encoding;
    double encode_ns = static_cast<double>(steady_now_ns() - t0) / kReps;
    t0 = steady_now_ns();
    for (int i = 0; i < kReps; ++i)
      benchmark::DoNotOptimize(evaluate_constraints(d.set, e).total_cubes);
    double eval_ns = static_cast<double>(steady_now_ns() - t0) / kReps;
    t0 = steady_now_ns();
    for (int i = 0; i < kReps; ++i)
      for (const FaceConstraint& c : d.set.constraints)
        benchmark::DoNotOptimize(
            check::reference_constraint_cover(c, e).size());
    double reference_ns = static_cast<double>(steady_now_ns() - t0) / kReps;
    encode_total_ns += encode_ns;
    eval_total_ns += eval_ns;
    reference_total_ns += reference_ns;
    std::printf(
        "  %-8s encode %10.1f us, eval %10.1f us, reference %10.1f us -> "
        "%5.3f\n",
        name.c_str(), encode_ns / 1e3, eval_ns / 1e3, reference_ns / 1e3,
        eval_ns / reference_ns);
  }
  const double share = eval_total_ns / reference_total_ns;
  bool ok = share <= kMaxEvalShare;
  std::printf(
      "  %-8s encode %10.1f us, eval %10.1f us, reference %10.1f us -> "
      "%5.3f %s\n",
      "total", encode_total_ns / 1e3, eval_total_ns / 1e3,
      reference_total_ns / 1e3, share,
      ok ? "OK" : "FAIL (eval > bound x reference)");
  return ok;
}

/// Multi-start by instance class (docs/ALGORITHM.md, "Tie-free
/// restarts"): Σ picola_encode_best(·, 4) over Table I, the evals it runs
/// included, with tbk apart; then how many generated sets (8-64 symbols)
/// are tie-free at up to 6, 40 and 120 constraints.
void run_restart_report() {
  constexpr int kRestarts = 4;
  constexpr int kReps = 5;
  std::printf("\nmulti-start by instance class (picola_encode_best, %d "
              "restarts, encode + eval, Table I):\n",
              kRestarts);
  double tbk_ns = 0, rest_ns = 0;
  for (const std::string& name : table1_benchmarks()) {
    DerivedConstraints d = derive_face_constraints(make_benchmark(name));
    uint64_t t0 = steady_now_ns();
    for (int i = 0; i < kReps; ++i)
      benchmark::DoNotOptimize(
          picola_encode_best(d.set, kRestarts).encoding.codes);
    double ns = static_cast<double>(steady_now_ns() - t0) / kReps;
    (name == "tbk" ? tbk_ns : rest_ns) += ns;
  }
  std::printf("  %-8s %10.1f us\n  %-8s %10.1f us\n  %-8s %10.1f us\n",
              "tbk", tbk_ns / 1e3, "rest", rest_ns / 1e3, "total",
              (tbk_ns + rest_ns) / 1e3);

  constexpr int kInstances = 2000;
  std::printf("tie-free runs among %d generated sets (8-64 symbols, seed "
              "20261019):\n",
              kInstances);
  for (int max_constraints : {6, 40, 120}) {
    check::GeneratorOptions g;
    g.min_symbols = 8;
    g.max_symbols = 64;
    g.max_constraints = max_constraints;
    check::InstanceGenerator gen(20261019, g);
    int tie_free = 0;
    for (int i = 0; i < kInstances; ++i) {
      check::InstanceGenerator::Instance inst = gen.next();
      PicolaOptions opt;
      opt.num_bits = inst.num_bits;
      tie_free += picola_encode(inst.set, opt).stats.tie_free;
    }
    std::printf("  up to %3d constraints: %4d (%.1f%%)\n", max_constraints,
                tie_free, 100.0 * tie_free / kInstances);
  }
}

}  // namespace
}  // namespace picola

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bool ok = picola::run_obs_overhead_check();
  ok &= picola::run_fault_overhead_check();
  ok &= picola::run_eval_cost_check();
  picola::run_restart_report();
  return ok ? 0 : 1;
}
