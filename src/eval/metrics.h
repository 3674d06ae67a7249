#pragma once
// Small measurement helpers shared by the benches and the state-assignment
// tool: wall-clock timing and encoding quality summaries.

#include <chrono>
#include <string>

#include "constraints/dichotomy.h"
#include "core/picola.h"
#include "encoders/encoding.h"

namespace picola {

/// Wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  double elapsed_ms() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Quality summary of an encoding against a constraint set.
struct EncodingQuality {
  int satisfied_constraints = 0;
  long satisfied_dichotomies = 0;
  long total_dichotomies = 0;
};

EncodingQuality encoding_quality(const ConstraintSet& cs, const Encoding& enc);

/// Render a ratio like "0.93" with two decimals.
std::string format_ratio(double x);

/// JSON rendering of one run's PicolaStats (the `picola encode
/// --stats-json` payload; timing fields need obs enabled, see
/// core/picola.h).
std::string picola_stats_json(const PicolaStats& s);

}  // namespace picola
