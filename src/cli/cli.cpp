#include "cli/cli.h"

#include <climits>
#include <csignal>
#include <fstream>
#include <functional>

#include "base/parse_util.h"
#include <atomic>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "base/problem_io.h"
#include "constraints/constraint_io.h"
#include "constraints/derive.h"
#include "constraints/dichotomy.h"
#include "core/input_encoding.h"
#include "core/picola.h"
#include "pla/mv_pla.h"
#include "encoders/annealing.h"
#include "encoders/enc_like.h"
#include "encoders/exact.h"
#include "encoders/nova_like.h"
#include "encoders/trivial.h"
#include "espresso/exact.h"
#include "eval/constraint_eval.h"
#include "eval/metrics.h"
#include "kiss/kiss_io.h"
#include "obs/build_info.h"
#include "obs/obs.h"
#include "pla/pla_io.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "portfolio/portfolio.h"
#include "sat/dimacs.h"
#include "sat/encode.h"
#include "service/service.h"
#include "stateassign/blif.h"
#include "stateassign/state_assign.h"

namespace picola::cli {

namespace {

struct ParsedArgs {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // "--x v" and bare "--flag"
};

bool parse_portfolio_args(const ParsedArgs& a, portfolio::PortfolioOptions* p,
                          std::ostream& err);

std::optional<ParsedArgs> parse_args(const std::vector<std::string>& args,
                                     std::ostream& err) {
  ParsedArgs p;
  if (args.empty()) {
    err << "usage: picola <encode|encode-input|batch|serve|client|assign"
           "|minimize|info|sat-export> [file] [options]\n";
    return std::nullopt;
  }
  p.command = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) == 0 || a == "-o") {
      std::string key = a == "-o" ? "--output" : a;
      static const char* kValued[] = {"--algorithm", "--bits", "--seed",
                                      "--output", "--steps", "--var",
                                      "--blif", "--jobs", "--restarts",
                                      "--cache", "--trace",
                                      "--tcp", "--bind", "--max-inflight",
                                      "--admin-port", "--slow-ms",
                                      "--idle-timeout-ms", "--max-frame-bytes",
                                      "--retry-after-ms", "--deadline-ms",
                                      "--retries", "--timeout-ms",
                                      "--backend", "--card", "--distinct",
                                      "--sweep", "--sat-conflicts",
                                      "--cache-dir", "--snapshot-interval",
                                      "--peers", "--self",
                                      "--peer-timeout-ms", "--cluster",
                                      "--hedge-ms"};
      bool valued = false;
      for (const char* v : kValued) valued |= key == v;
      if (valued) {
        if (i + 1 >= args.size()) {
          err << "option " << a << " needs a value\n";
          return std::nullopt;
        }
        p.options[key] = args[++i];
      } else {
        p.options[key] = "1";
      }
    } else {
      p.positional.push_back(a);
    }
  }
  return p;
}

std::optional<std::string> read_file(const std::string& path,
                                     std::ostream& err) {
  std::ifstream in(path);
  if (!in) {
    err << "cannot open " << path << "\n";
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& text,
                std::ostream& err) {
  std::ofstream out(path);
  if (!out) {
    err << "cannot write " << path << "\n";
    return false;
  }
  out << text;
  return true;
}

/// Reads integer option `key` into *out when it is given; false (after a
/// "bad <key> value" message) when it is not an integer in [min, max].
template <typename T>
bool int_option(const ParsedArgs& a, const char* key, long min, long max,
                T* out, std::ostream& err) {
  auto it = a.options.find(key);
  if (it == a.options.end()) return true;
  auto v = parse_int(it->second);
  if (!v || *v < min || *v > max) {
    err << "bad " << key << " value\n";
    return false;
  }
  *out = static_cast<T>(*v);
  return true;
}

/// Turns the process-wide instrumentation on for the duration of a
/// command when any of --trace / --metrics / --stats-json was given, and
/// restores the previous (off) state afterwards so in-process callers
/// (tests, embedding) see independent runs.  Also owns writing the
/// Chrome trace file and rendering the --metrics report.
class ObsSession {
 public:
  explicit ObsSession(const ParsedArgs& a)
      : want_trace_(a.options.count("--trace") != 0),
        want_metrics_(a.options.count("--metrics") != 0),
        active_(want_trace_ || want_metrics_ ||
                a.options.count("--stats-json") != 0) {
    if (!active_) return;
    if (want_trace_) trace_path_ = a.options.at("--trace");
    obs::MetricsRegistry::global().reset();
    obs::Tracer::global().clear();
    obs::set_enabled(true);
    obs::Tracer::global().set_tracing(want_trace_);
  }

  ~ObsSession() {
    if (!active_) return;
    obs::Tracer::global().set_tracing(false);
    obs::set_enabled(false);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool metrics_wanted() const { return want_metrics_; }

  /// Write the collected trace to the --trace path (no-op without the
  /// flag).  Returns false on I/O failure.
  bool write_trace(std::ostream& err) const {
    if (!want_trace_) return true;
    std::ofstream out(trace_path_);
    if (!out) {
      err << "cannot write " << trace_path_ << "\n";
      return false;
    }
    out << obs::Tracer::global().chrome_trace_json() << "\n";
    return true;
  }

 private:
  bool want_trace_ = false;
  bool want_metrics_ = false;
  bool active_ = false;
  std::string trace_path_;
};

/// A registry's text report, '#'-prefixed for the text front-ends.
std::string report_lines(const obs::MetricsRegistry& registry) {
  std::istringstream is(registry.report_text());
  std::ostringstream os;
  std::string line;
  while (std::getline(is, line)) os << "# " << line << "\n";
  return os.str();
}

/// base/problem_io with this file's ostream error convention.
std::optional<Problem> load_problem(const std::string& path,
                                    std::ostream& err) {
  std::string error;
  auto p = load_problem_file(path, &error);
  if (!p) err << error << "\n";
  return p;
}

std::optional<Encoding> run_algorithm(const std::string& algo,
                                      const ConstraintSet& set, int bits,
                                      uint64_t seed, bool self_check,
                                      std::ostream& err,
                                      PicolaStats* stats_out = nullptr) {
  if (algo == "picola" || algo == "picola-best") {
    PicolaOptions o;
    o.num_bits = bits;
    o.self_check = self_check;
    try {
      PicolaResult r = algo == "picola" ? picola_encode(set, o)
                                        : picola_encode_best(set, 8, o);
      if (stats_out) *stats_out = r.stats;
      return r.encoding;
    } catch (const std::exception& e) {
      err << e.what() << "\n";
      return std::nullopt;
    }
  }
  if (algo == "nova") {
    NovaLikeOptions o;
    o.num_bits = bits;
    return nova_like_encode(set, o).encoding;
  }
  if (algo == "enc") {
    EncLikeOptions o;
    o.num_bits = bits;
    return enc_like_encode(set, o).encoding;
  }
  if (algo == "anneal") {
    AnnealingOptions o;
    o.num_bits = bits;
    o.seed = seed;
    return annealing_encode(set, o).encoding;
  }
  if (algo == "sequential") return sequential_encoding(set.num_symbols, bits);
  if (algo == "gray") return gray_encoding(set.num_symbols, bits);
  if (algo == "random") return random_encoding(set.num_symbols, seed, bits);
  if (algo == "exact") {
    ExactOptions o;
    o.num_bits = bits;
    try {
      return exact_encode(set, o).encoding;
    } catch (const std::invalid_argument& e) {
      err << e.what() << "\n";
      return std::nullopt;
    }
  }
  err << "unknown algorithm " << algo << " (picola picola-best nova enc "
      << "anneal sequential gray random exact)\n";
  return std::nullopt;
}

std::string codes_text(const Encoding& enc,
                       const std::vector<std::string>& names) {
  std::ostringstream os;
  for (int s = 0; s < enc.num_symbols; ++s) {
    if (!names.empty())
      os << names[static_cast<size_t>(s)];
    else
      os << s;
    os << ' ';
    for (int b = enc.num_bits - 1; b >= 0; --b) os << enc.bit(s, b);
    os << '\n';
  }
  return os.str();
}

int cmd_encode(const ParsedArgs& a, std::ostream& out, std::ostream& err) {
  if (a.positional.size() != 1) {
    err << "encode needs one input file\n";
    return 2;
  }
  auto problem = load_problem(a.positional[0], err);
  if (!problem) return 1;
  std::string algo = a.options.count("--algorithm")
                         ? a.options.at("--algorithm")
                         : "picola";
  int bits = 0;
  if (!int_option(a, "--bits", 0, INT_MAX, &bits, err)) return 2;
  uint64_t seed = 1;
  if (!int_option(a, "--seed", 0, INT_MAX, &seed, err)) return 2;
  const bool stats_json = a.options.count("--stats-json") != 0;

  // --backend routes through the portfolio front-end (src/portfolio)
  // instead of a single run_algorithm call; the '#' summary names both
  // the requested backend and the slot that won.
  if (a.options.count("--backend")) {
    if (a.options.count("--algorithm")) {
      err << "--backend and --algorithm are mutually exclusive\n";
      return 2;
    }
    if (stats_json) {
      err << "--stats-json is not supported with --backend\n";
      return 2;
    }
    portfolio::PortfolioOptions popt;
    if (!parse_portfolio_args(a, &popt, err)) return 2;
    int restarts = 4;
    if (!int_option(a, "--restarts", 1, INT_MAX, &restarts, err)) return 2;
    PicolaOptions po;
    po.num_bits = bits;
    po.self_check = a.options.count("--self-check") != 0;
    ObsSession obs_session(a);
    Stopwatch sw;
    portfolio::PortfolioResult pr;
    try {
      pr = portfolio::portfolio_encode(problem->set, restarts, po, popt);
    } catch (const std::exception& e) {
      err << e.what() << "\n";
      return 1;
    }
    double ms = sw.elapsed_ms();
    std::string codes = codes_text(pr.picola.encoding, problem->names);
    if (a.options.count("--output")) {
      if (!write_file(a.options.at("--output"), codes, err)) return 1;
    }
    if (!a.options.count("--quiet")) out << codes;
    EncodingQuality q = encoding_quality(problem->set, pr.picola.encoding);
    out << "# backend " << portfolio::backend_kind_name(popt.backend)
        << " winner " << portfolio::backend_kind_name(pr.backend) << ", "
        << pr.picola.encoding.num_bits << " bits, " << ms << " ms\n";
    out << "# satisfied " << q.satisfied_constraints << "/"
        << problem->set.size() << " constraints, " << q.satisfied_dichotomies
        << "/" << q.total_dichotomies << " dichotomies, " << pr.total_cubes
        << " implementation cubes\n";
    if (obs_session.metrics_wanted())
      out << report_lines(obs::MetricsRegistry::global());
    if (!obs_session.write_trace(err)) return 1;
    return 0;
  }
  if (stats_json && algo != "picola" && algo != "picola-best") {
    err << "--stats-json needs --algorithm picola or picola-best\n";
    return 2;
  }

  ObsSession obs_session(a);
  Stopwatch sw;
  PicolaStats stats;
  auto enc = run_algorithm(algo, problem->set, bits, seed,
                           a.options.count("--self-check") != 0, err,
                           stats_json ? &stats : nullptr);
  if (!enc) return 1;
  double ms = sw.elapsed_ms();

  std::string codes = codes_text(*enc, problem->names);
  if (a.options.count("--output")) {
    if (!write_file(a.options.at("--output"), codes, err)) return 1;
  }
  if (!a.options.count("--quiet")) out << codes;

  EncodingQuality q = encoding_quality(problem->set, *enc);
  ConstraintEvalResult ev = evaluate_constraints(problem->set, *enc);
  out << "# algorithm " << algo << ", " << enc->num_bits << " bits, "
      << ms << " ms\n";
  out << "# satisfied " << q.satisfied_constraints << "/" << problem->set.size()
      << " constraints, " << q.satisfied_dichotomies << "/"
      << q.total_dichotomies << " dichotomies, " << ev.total_cubes
      << " implementation cubes\n";
  if (stats_json) out << picola_stats_json(stats) << "\n";
  if (obs_session.metrics_wanted())
    out << report_lines(obs::MetricsRegistry::global());
  if (!obs_session.write_trace(err)) return 1;
  return 0;
}

int cmd_assign(const ParsedArgs& a, std::ostream& out, std::ostream& err) {
  if (a.positional.size() != 1) {
    err << "assign needs one KISS2 file\n";
    return 2;
  }
  auto text = read_file(a.positional[0], err);
  if (!text) return 1;
  KissParseResult r = parse_kiss(*text);
  if (!r.ok()) {
    err << a.positional[0] << ": " << r.error << "\n";
    return 1;
  }
  StateAssignOptions opt;
  std::string algo = a.options.count("--algorithm")
                         ? a.options.at("--algorithm")
                         : "picola";
  if (algo == "picola") opt.assigner = Assigner::kPicola;
  else if (algo == "nova") opt.assigner = Assigner::kNovaILike;
  else if (algo == "nova-io") opt.assigner = Assigner::kNovaIoLike;
  else if (algo == "enc") opt.assigner = Assigner::kEncLike;
  else if (algo == "sequential") opt.assigner = Assigner::kSequential;
  else if (algo == "random") opt.assigner = Assigner::kRandom;
  else {
    err << "unknown assigner " << algo << "\n";
    return 2;
  }
  if (a.options.count("--raw-table")) opt.use_symbolic_cover = false;
  if (a.options.count("--minimize-states")) opt.minimize_states_first = true;

  StateAssignResult res = assign_states(r.fsm, opt);
  std::string verify = verify_against_fsm(res.machine, res.encoding,
                                          res.minimized, res.encoded_dc, 500,
                                          7);
  if (res.states_merged > 0)
    out << "# state minimisation merged " << res.states_merged
        << " states\n";
  out << "# " << assigner_name(opt.assigner) << ": " << res.product_terms
      << " product terms, area " << res.area << ", self-check "
      << (verify.empty() ? "PASS" : verify) << "\n";
  out << "# codes:\n";
  for (int s = 0; s < res.machine.num_states(); ++s) {
    out << "#   " << res.machine.state_names[static_cast<size_t>(s)] << " = ";
    for (int b = res.encoding.num_bits - 1; b >= 0; --b)
      out << res.encoding.bit(s, b);
    out << "\n";
  }
  std::string pla = write_pla(res.pla);
  if (a.options.count("--output")) {
    if (!write_file(a.options.at("--output"), pla, err)) return 1;
  } else {
    out << pla;
  }
  if (a.options.count("--blif")) {
    std::string blif = write_blif(res.machine, res.encoding, res.minimized);
    if (!write_file(a.options.at("--blif"), blif, err)) return 1;
  }
  return verify.empty() ? 0 : 1;
}

int cmd_minimize(const ParsedArgs& a, std::ostream& out, std::ostream& err) {
  if (a.positional.size() != 1) {
    err << "minimize needs one PLA file\n";
    return 2;
  }
  auto text = read_file(a.positional[0], err);
  if (!text) return 1;
  PlaParseResult r = parse_pla(*text);
  if (!r.ok()) {
    err << a.positional[0] << ": " << r.error << "\n";
    return 1;
  }
  Cover onset = r.pla.onset();
  Cover dc = r.pla.dcset();
  Stopwatch sw;
  Cover m;
  if (a.options.count("--exact")) {
    auto exact = esp::exact_minimize(onset, dc);
    if (!exact) {
      err << "problem too large for exact minimisation\n";
      return 1;
    }
    m = *exact;
  } else {
    esp::EspressoOptions o;
    if (a.options.count("--single-pass")) o.single_pass = true;
    m = esp::minimize_cover(onset, dc, o);
  }
  double ms = sw.elapsed_ms();
  Pla outpla = Pla::from_cover(m);
  outpla.input_labels = r.pla.input_labels;
  outpla.output_labels = r.pla.output_labels;
  out << "# " << r.pla.rows.size() << " -> " << outpla.rows.size()
      << " terms in " << ms << " ms\n";
  std::string text_out = write_pla(outpla);
  if (a.options.count("--output")) {
    if (!write_file(a.options.at("--output"), text_out, err)) return 1;
  } else {
    out << text_out;
  }
  return 0;
}

int cmd_encode_input(const ParsedArgs& a, std::ostream& out,
                     std::ostream& err) {
  if (a.positional.size() != 1) {
    err << "encode-input needs one .mv PLA file\n";
    return 2;
  }
  auto text = read_file(a.positional[0], err);
  if (!text) return 1;
  MvPlaParseResult r = parse_mv_pla(*text);
  if (!r.ok()) {
    err << a.positional[0] << ": " << r.error << "\n";
    return 1;
  }
  int var = r.pla.num_binary;
  if (!int_option(a, "--var", INT_MIN, INT_MAX, &var, err)) return 2;
  if (var < r.pla.num_binary || var >= r.pla.num_vars()) {
    err << "--var must name a multi-valued variable ("
        << r.pla.num_binary << ".." << r.pla.num_vars() - 1 << ")\n";
    return 2;
  }
  InputEncodingOptions opt;
  std::string algo = a.options.count("--algorithm")
                         ? a.options.at("--algorithm")
                         : "picola";
  if (algo == "picola") opt.encoder = InputEncoder::kPicola;
  else if (algo == "nova") opt.encoder = InputEncoder::kNovaLike;
  else if (algo == "enc") opt.encoder = InputEncoder::kEncLike;
  else if (algo == "anneal") opt.encoder = InputEncoder::kAnnealing;
  else if (algo == "sequential") opt.encoder = InputEncoder::kSequential;
  else if (algo == "random") opt.encoder = InputEncoder::kRandom;
  else {
    err << "unknown encoder " << algo << "\n";
    return 2;
  }
  if (!int_option(a, "--bits", 0, INT_MAX, &opt.num_bits, err)) return 2;
  if (!int_option(a, "--seed", 0, INT_MAX, &opt.seed, err)) return 2;

  InputEncodingResult res =
      encode_symbolic_input(r.pla.onset(), r.pla.dcset(), var, opt);
  out << "# variable " << var << " (" << res.encoding.num_symbols
      << " values) encoded with " << res.encoding.num_bits << " bits\n";
  out << "# " << res.constraints.size() << " face constraints, "
      << res.minimized_symbolic.size() << " symbolic cubes -> "
      << res.minimized.size() << " encoded cubes\n";
  for (int v = 0; v < res.encoding.num_symbols; ++v) {
    out << "# value " << v << " = ";
    for (int b = res.encoding.num_bits - 1; b >= 0; --b)
      out << res.encoding.bit(v, b);
    out << "\n";
  }
  MvPla outpla;
  if (mv_pla_from_covers(res.minimized, res.encoded_dc, &outpla)) {
    std::string text_out = write_mv_pla(outpla);
    if (a.options.count("--output")) {
      if (!write_file(a.options.at("--output"), text_out, err)) return 1;
    } else {
      out << text_out;
    }
  } else {
    out << res.minimized.to_string();
  }
  return 0;
}

/// Strip the whitespace the request-line tokenizer skips, so a line it
/// would read as empty is skipped as blank.
std::string trim(const std::string& s) {
  constexpr const char* kSpace = " \t\n\v\f\r";
  size_t b = s.find_first_not_of(kSpace);
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(kSpace);
  return s.substr(b, e - b + 1);
}

/// Parses the backend-selection knobs shared by encode, batch, serve and
/// client: --backend picola|sat|anneal|portfolio, --card
/// pairwise|sequential|commander, --distinct difference|indicator|lazy,
/// --sweep descending|binary|scratch, --sat-conflicts N.
bool parse_portfolio_args(const ParsedArgs& a, portfolio::PortfolioOptions* p,
                          std::ostream& err) {
  if (a.options.count("--backend")) {
    auto k = portfolio::parse_backend_kind(a.options.at("--backend"));
    if (!k) {
      err << "bad --backend value (picola sat anneal portfolio)\n";
      return false;
    }
    p->backend = *k;
  }
  if (a.options.count("--card")) {
    auto c = sat::parse_card_encoding(a.options.at("--card"));
    if (!c) {
      err << "bad --card value (pairwise sequential commander)\n";
      return false;
    }
    p->sat_card = *c;
  }
  if (a.options.count("--distinct")) {
    auto d = sat::parse_distinct_encoding(a.options.at("--distinct"));
    if (!d) {
      err << "bad --distinct value (difference indicator lazy)\n";
      return false;
    }
    p->sat_distinct = *d;
  }
  if (a.options.count("--sweep")) {
    auto s = sat::parse_sweep_mode(a.options.at("--sweep"));
    if (!s) {
      err << "bad --sweep value (descending binary scratch)\n";
      return false;
    }
    p->sat_sweep = *s;
  }
  if (!int_option(a, "--sat-conflicts", 0, INT_MAX, &p->sat_max_conflicts,
                  err))
    return false;
  if (!int_option(a, "--seed", 0, INT_MAX, &p->anneal_seed, err)) return false;
  return true;
}

/// Shared option block of the service front-ends.
struct ServiceArgs {
  ServiceOptions service;
  int restarts = 4;
  int bits = 0;
  bool self_check = false;
  portfolio::PortfolioOptions portfolio;
};

std::optional<ServiceArgs> parse_service_args(const ParsedArgs& a,
                                              std::ostream& err) {
  ServiceArgs s;
  if (!int_option(a, "--jobs", 1, INT_MAX, &s.service.num_threads, err))
    return std::nullopt;
  if (!int_option(a, "--restarts", 1, INT_MAX, &s.restarts, err))
    return std::nullopt;
  if (!int_option(a, "--cache", 0, INT_MAX, &s.service.cache_capacity, err))
    return std::nullopt;
  if (!int_option(a, "--bits", 0, INT_MAX, &s.bits, err)) return std::nullopt;
  s.self_check = a.options.count("--self-check") != 0;
  if (a.options.count("--cache-dir"))
    s.service.cache_dir = a.options.at("--cache-dir");
  if (!int_option(a, "--snapshot-interval", INT_MIN, INT_MAX,
                  &s.service.snapshot_interval_s, err))
    return std::nullopt;
  if (a.options.count("--snapshot-interval") && s.service.cache_dir.empty()) {
    err << "--snapshot-interval needs --cache-dir\n";
    return std::nullopt;
  }
  if (!parse_portfolio_args(a, &s.portfolio, err)) return std::nullopt;
  return s;
}

/// Construct the service, surfacing a recovery refusal (--cache-dir
/// pointing at a corrupt store throws from the constructor) as an error
/// message + nullptr instead of an escaped exception.
std::unique_ptr<EncodingService> make_service(const ServiceOptions& o,
                                              std::ostream& err) {
  try {
    return std::make_unique<EncodingService>(o);
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return nullptr;
  }
}

int cmd_batch(const ParsedArgs& a, std::ostream& out, std::ostream& err) {
  if (a.positional.size() != 1) {
    err << "batch needs one list file\n";
    return 2;
  }
  auto text = read_file(a.positional[0], err);
  if (!text) return 1;
  auto sa = parse_service_args(a, err);
  if (!sa) return 2;
  const bool json = a.options.count("--json") != 0;

  struct Item {
    std::string path;
    std::optional<Problem> problem;
    std::string error;
    std::shared_future<JobResult> future;
  };
  std::vector<Item> items;
  std::istringstream is(*text);
  std::string line;
  while (std::getline(is, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    Item item;
    item.path = line;
    item.problem = load_problem_file(line, &item.error);
    items.push_back(std::move(item));
  }
  if (items.empty()) {
    err << a.positional[0] << ": no input files listed\n";
    return 1;
  }

  ObsSession obs_session(a);
  std::unique_ptr<EncodingService> service_ptr = make_service(sa->service, err);
  if (!service_ptr) return 1;
  EncodingService& service = *service_ptr;
  Stopwatch sw;
  for (Item& item : items) {
    if (!item.problem) continue;
    Job job;
    job.set = item.problem->set;
    job.options.num_bits = sa->bits;
    job.options.self_check = sa->self_check;
    job.restarts = sa->restarts;
    job.portfolio = sa->portfolio;
    job.tag = item.path;
    item.future = service.submit(std::move(job));
  }

  // The per-file lines and --json entries contain only deterministic
  // fields (identical for every --jobs value); wall times and cache
  // behaviour go to the '#' lines.
  bool any_error = false;
  long total_cubes = 0;
  int solved = 0;
  net::JsonValue files = net::JsonValue::make_array();
  auto report_error = [&](const std::string& path, const std::string& error) {
    any_error = true;
    if (!json) {
      out << path << " error: " << error << "\n";
      return;
    }
    net::JsonValue f = net::JsonValue::make_object();
    f.set("path", net::JsonValue::make_string(path));
    f.set("error", net::JsonValue::make_string(error));
    files.push_back(std::move(f));
  };
  for (Item& item : items) {
    if (!item.problem) {
      report_error(item.path, item.error);
      continue;
    }
    net::Reply reply;
    try {
      reply = net::Reply::from_result(item.problem->set, item.future.get());
    } catch (const std::exception& e) {
      report_error(item.path, e.what());
      continue;
    }
    total_cubes += reply.cubes;
    ++solved;
    if (json) {
      net::JsonValue f = reply.fields_json();
      f.set("path", net::JsonValue::make_string(item.path));
      files.push_back(std::move(f));
    } else {
      out << item.path << " " << reply.summary() << "\n";
    }
  }
  service.wait_all();
  double ms = sw.elapsed_ms();

  if (json) {
    out << "{\"files\":" << files.dump() << ",\"solved\":" << solved
        << ",\"total_cubes\":" << total_cubes << ",\"threads\":"
        << service.num_threads() << ",\"elapsed_ms\":" << ms
        << ",\"stats\":" << service.stats_json();
    if (obs_session.metrics_wanted())
      out << ",\"metrics\":" << obs::MetricsRegistry::global().report_json()
          << ",\"service_metrics\":" << service.metrics().report_json();
    out << "}\n";
  } else {
    out << "# " << solved << "/" << items.size() << " files, "
        << total_cubes << " total cubes, " << sa->restarts
        << " restarts/job, " << service.num_threads() << " threads, "
        << ms << " ms\n";
    out << "# service: " << service.stats_line() << "\n";
    if (obs_session.metrics_wanted()) {
      out << "# metrics (per-phase, process-wide):\n"
          << report_lines(obs::MetricsRegistry::global())
          << "# metrics (this service):\n" << report_lines(service.metrics());
    }
  }
  if (!obs_session.write_trace(err)) return 1;
  return any_error ? 1 : 0;
}

/// The server whose drain SIGTERM/SIGINT should trigger (TCP serve only).
std::atomic<net::Server*> g_signal_server{nullptr};

extern "C" void picola_serve_signal_handler(int) {
  net::Server* s = g_signal_server.load(std::memory_order_relaxed);
  if (s) s->request_shutdown();  // async-signal-safe by contract
}

int cmd_serve_tcp(const ParsedArgs& a, const ServiceArgs& sa,
                  std::ostream& out, std::ostream& err) {
  net::ServerOptions o;
  o.service = sa.service;
  o.default_restarts = sa.restarts;
  o.default_bits = sa.bits;
  o.default_portfolio = sa.portfolio;
  o.self_check = sa.self_check;
  if (!int_option(a, "--tcp", 0, 65535, &o.port, err)) return 2;
  if (a.options.count("--bind")) o.bind_address = a.options.at("--bind");
  if (!int_option(a, "--max-inflight", 1, 1 << 20, &o.max_inflight, err))
    return 2;
  if (!int_option(a, "--idle-timeout-ms", 0, 86'400'000,
                  &o.idle_timeout_ms, err))
    return 2;
  if (!int_option(a, "--max-frame-bytes", 64,
                  static_cast<long>(net::kFrameAbsoluteMax),
                  &o.max_frame_bytes, err))
    return 2;
  if (!int_option(a, "--retry-after-ms", 0, 60'000, &o.retry_after_ms, err))
    return 2;
  if (!int_option(a, "--admin-port", 0, 65535, &o.admin_port, err)) return 2;
  if (!int_option(a, "--slow-ms", 0, 86'400'000, &o.slow_request_ms, err))
    return 2;
  o.use_poll = a.options.count("--poll") != 0;
  o.allow_paths = a.options.count("--no-paths") == 0;
  if (a.options.count("--peers")) {
    std::string perr;
    o.peers = net::parse_member_list(a.options.at("--peers"), &perr);
    if (o.peers.empty()) {
      err << "bad --peers: " << perr << "\n";
      return 2;
    }
    if (!a.options.count("--self")) {
      err << "--peers needs --self host:port (this node's member name)\n";
      return 2;
    }
    o.self = a.options.at("--self");
    bool member = false;
    for (const net::ClusterMember& m : o.peers) member |= m.name() == o.self;
    if (!member) {
      err << "--self " << o.self << " is not in --peers\n";
      return 2;
    }
    o.peer_forward = a.options.count("--no-peer-forward") == 0;
    if (!int_option(a, "--peer-timeout-ms", 1, 60'000, &o.peer_timeout_ms,
                    err))
      return 2;
  }

  ObsSession obs_session(a);
  std::unique_ptr<net::Server> server;
  try {
    server = std::make_unique<net::Server>(o);
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 1;
  }

  // Graceful drain on SIGTERM/SIGINT; previous dispositions restored so
  // in-process callers (tests) leave no trace.  SIGPIPE ignored for the
  // server's lifetime: socket writes use MSG_NOSIGNAL already, but a peer
  // vanishing between a stdio flush and a pipe must not kill the process.
  g_signal_server.store(server.get(), std::memory_order_relaxed);
  struct sigaction sa_new {}, sa_old_term {}, sa_old_int {}, sa_old_pipe {};
  sa_new.sa_handler = picola_serve_signal_handler;
  sigemptyset(&sa_new.sa_mask);
  sigaction(SIGTERM, &sa_new, &sa_old_term);
  sigaction(SIGINT, &sa_new, &sa_old_int);
  struct sigaction sa_ign {};
  sa_ign.sa_handler = SIG_IGN;
  sigemptyset(&sa_ign.sa_mask);
  sigaction(SIGPIPE, &sa_ign, &sa_old_pipe);

  out << "listening " << o.bind_address << ":" << server->port() << "\n";
  if (o.admin_port >= 0)
    out << "admin " << o.bind_address << ":" << server->admin_port() << "\n";
  out.flush();
  server->run();

  sigaction(SIGTERM, &sa_old_term, nullptr);
  sigaction(SIGINT, &sa_old_int, nullptr);
  sigaction(SIGPIPE, &sa_old_pipe, nullptr);
  g_signal_server.store(nullptr, std::memory_order_relaxed);

  auto net = [&server](const char* name) {
    return server->metrics().counter_value(std::string("net/") + name);
  };
  out << "# net: accepted=" << net("connections_accepted")
      << " frames_in=" << net("frames_in") << " frames_out="
      << net("frames_out") << " ok=" << net("responses_ok")
      << " errors=" << net("responses_error") << " sheds=" << net("sheds")
      << " deadline_misses=" << net("deadline_misses")
      << " idle_closed=" << net("idle_closed") << "\n";
  out << "# service: " << server->service().stats_line() << "\n";
  if (obs_session.metrics_wanted()) {
    out << "# metrics (net):\n" << report_lines(server->metrics())
        << "# metrics (service):\n"
        << report_lines(server->service().metrics());
  }
  if (!obs_session.write_trace(err)) return 1;
  return 0;
}

/// How `client` and `client --cluster` turn a request line into a
/// request.
struct ClientPlan {
  bool send_inline = false;  ///< read the file here and send its text
  bool route = false;        ///< also parse it here, for its ring key
  bool allow_shutdown = true;
  int deadline_ms = 0;
  std::optional<portfolio::BackendKind> backend;  ///< --backend default
};

/// One round trip; nullopt (and *error) once the transport gave up.
using CallFn = std::function<std::optional<net::JsonValue>(
    const net::JsonValue& request, uint64_t route_key, std::string* error)>;

/// The request loop of both clients.  Stdin lines mirror the stdin
/// `serve` protocol: a request line, or `stats` / `metrics` / `ping` /
/// `shutdown` / `quit`.  Encode answers are printed as the same `ok` and
/// `error` lines `serve` prints; command replies as their JSON.  Returns
/// the number of failed requests, or -1 once the transport gave up.
int client_loop(const ClientPlan& plan, const CallFn& call, std::istream& in,
                std::ostream& out, std::ostream& err) {
  int failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    if (line == "quit" || line == "exit") break;

    net::JsonValue req;
    uint64_t key = 0;
    const bool is_cmd = line == "stats" || line == "metrics" ||
                        line == "ping" || line == "shutdown";
    net::RequestLine rl;
    if (line == "shutdown" && !plan.allow_shutdown) {
      err << "shutdown is per-node; aim `picola client host:port` at the "
             "node you want drained\n";
      ++failures;
      continue;
    }
    if (is_cmd) {
      req = net::JsonValue::make_object();
      req.set("cmd", net::JsonValue::make_string(line));
    } else {
      rl = net::parse_request_line(line);
      if (!rl.error.empty()) {
        out << net::error_line(rl.path, rl.error) << "\n";
        ++failures;
        continue;
      }
      net::EncodeRequest er;
      er.id = net::JsonValue::make_string(rl.path);
      if (rl.restarts > 0) er.restarts = rl.restarts;
      er.backend = rl.backend ? rl.backend : plan.backend;
      er.deadline_ms = plan.deadline_ms;
      if (plan.send_inline) {
        auto text = read_file(rl.path, err);
        if (!text) { ++failures; continue; }
        if (plan.route) {
          // Parsing here also catches a bad problem before it costs a
          // network round trip.
          std::string parse_error;
          auto problem = parse_problem_text(*text, &parse_error);
          if (!problem) {
            out << net::error_line(rl.path, parse_error) << "\n";
            ++failures;
            continue;
          }
          key = route_key(problem->set);
        }
        er.con = std::move(*text);
      } else {
        er.path = rl.path;
      }
      req = er.to_json();
    }

    std::string error;
    auto resp = call(req, key, &error);
    if (!resp) {
      err << error << "\n";
      return -1;
    }
    if (is_cmd) {
      out << resp->dump() << "\n";
      out.flush();
      if (line == "shutdown") break;
      continue;
    }
    if (const net::JsonValue* e = resp->find("error")) {
      const net::JsonValue* detail = resp->find("detail");
      out << net::error_line(rl.path, detail && detail->is_string()
                                          ? detail->as_string()
                                          : e->as_string())
          << "\n";
      ++failures;
    } else if (auto reply = net::Reply::from_json(*resp)) {
      out << reply->ok_line(rl.path) << "\n";
    } else {
      out << net::error_line(rl.path, "malformed reply") << "\n";
      ++failures;
    }
    out.flush();
  }
  return failures;
}

/// --timeout-ms T bounds both connecting and each frame's I/O.
bool client_timeout_option(const ParsedArgs& a, net::ClientOptions* copt,
                           std::ostream& err) {
  if (!int_option(a, "--timeout-ms", 1, 86'400'000, &copt->io_timeout_ms,
                  err))
    return false;
  if (a.options.count("--timeout-ms"))
    copt->connect_timeout_ms = copt->io_timeout_ms;
  return true;
}

/// The --backend and --deadline-ms defaults both clients attach to every
/// encode request.
bool parse_client_plan(const ParsedArgs& a, ClientPlan* plan,
                       std::ostream& err) {
  if (!int_option(a, "--deadline-ms", 1, 86'400'000, &plan->deadline_ms, err))
    return false;
  if (a.options.count("--backend")) {
    plan->backend = portfolio::parse_backend_kind(a.options.at("--backend"));
    if (!plan->backend) {
      err << "bad --backend value (picola sat anneal portfolio)\n";
      return false;
    }
  }
  return true;
}

/// `picola client --cluster a:p1,b:p2[,...]` — the client's request loop
/// routed through the consistent-hash cluster router (net/cluster.h,
/// docs/CLUSTER.md): each problem is read and parsed locally, placed on
/// the ring by its route_key, and sent inline with failover / hedging /
/// breaker handling.  `shutdown` is refused (it is per-node).  The
/// trailing `# cluster:` line reports reroutes, hedges and suppressed
/// duplicates.
int cmd_client_cluster(const ParsedArgs& a, std::istream& in,
                       std::ostream& out, std::ostream& err) {
  if (!a.positional.empty()) {
    err << "client --cluster takes no positional argument (members come "
           "from the --cluster list)\n";
    return 2;
  }
  net::ClusterOptions copt;
  std::string perr;
  copt.members = net::parse_member_list(a.options.at("--cluster"), &perr);
  if (copt.members.empty()) {
    err << "bad --cluster: " << perr << "\n";
    return 2;
  }
  if (!client_timeout_option(a, &copt.client, err)) return 2;
  if (!int_option(a, "--hedge-ms", 0, 86'400'000, &copt.hedge_ms, err))
    return 2;
  if (!int_option(a, "--seed", 0, 1'000'000'000, &copt.seed, err)) return 2;
  ClientPlan plan;
  if (!parse_client_plan(a, &plan, err)) return 2;
  plan.send_inline = true;  // the router must see the constraints
  plan.route = true;
  plan.allow_shutdown = false;

  net::ClusterClient cluster(copt);
  int failures = client_loop(
      plan,
      [&cluster](const net::JsonValue& req, uint64_t key, std::string* error) {
        return cluster.call(req, key, error);
      },
      in, out, err);
  if (failures < 0) return 1;
  net::ClusterClient::Stats cs = cluster.stats();
  out << "# cluster: requests=" << cs.requests << " attempts=" << cs.attempts
      << " reroutes=" << cs.reroutes << " hedges=" << cs.hedges
      << " hedge_wins=" << cs.hedge_wins << " dup_suppressed="
      << cs.duplicates_suppressed << " breaker_skips=" << cs.breaker_skips
      << " drains_observed=" << cs.drains_observed << " rejoins="
      << cs.rejoins << "\n";
  return failures == 0 ? 0 : 1;
}

/// `picola client host:port` — the request loop over one connection
/// (with --retries / --timeout-ms resilience).  Requests name the file
/// by `path` unless --inline sends its text.  Output for encode requests
/// is byte-compatible with stdin serve's `ok <path> ...` lines.
int cmd_client(const ParsedArgs& a, std::istream& in, std::ostream& out,
               std::ostream& err) {
  if (a.options.count("--cluster")) return cmd_client_cluster(a, in, out, err);
  if (a.positional.size() != 1) {
    err << "client needs one host:port argument\n";
    return 2;
  }
  const std::string& hp = a.positional[0];
  size_t colon = hp.rfind(':');
  if (colon == std::string::npos) {
    err << "client needs host:port, got " << hp << "\n";
    return 2;
  }
  auto port = parse_int(hp.substr(colon + 1));
  if (!port || *port < 1 || *port > 65535) {
    err << "bad port in " << hp << "\n";
    return 2;
  }
  ClientPlan plan;
  if (!parse_client_plan(a, &plan, err)) return 2;
  plan.send_inline = a.options.count("--inline") != 0;

  net::ClientOptions copt;
  if (!int_option(a, "--retries", 0, 1000, &copt.max_retries, err)) return 2;
  if (!client_timeout_option(a, &copt, err)) return 2;

  // --trace <file>: collect client-side spans and attach generated
  // trace_id / parent_span fields so the server's spans correlate with
  // ours in one exported timeline.
  ObsSession obs_session(a);
  copt.trace_requests = a.options.count("--trace") != 0;

  net::Client client(copt);
  std::string error;
  if (!client.connect(hp.substr(0, colon), static_cast<uint16_t>(*port),
                      &error)) {
    err << error << "\n";
    return 1;
  }
  int failures = client_loop(
      plan,
      [&client](const net::JsonValue& req, uint64_t, std::string* error) {
        return client.call_with_retry(req, error);
      },
      in, out, err);
  if (failures < 0) return 1;
  if (!obs_session.write_trace(err)) return 1;
  return failures == 0 ? 0 : 1;
}

int cmd_serve(const ParsedArgs& a, std::istream& in, std::ostream& out,
              std::ostream& err) {
  if (!a.positional.empty()) {
    err << "serve takes no positional arguments (requests come on stdin)\n";
    return 2;
  }
  auto sa = parse_service_args(a, err);
  if (!sa) return 2;
  if (a.options.count("--tcp")) return cmd_serve_tcp(a, *sa, out, err);
  ObsSession obs_session(a);
  std::unique_ptr<EncodingService> service_ptr = make_service(sa->service, err);
  if (!service_ptr) return 1;
  EncodingService& service = *service_ptr;

  std::string line;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    if (line == "quit" || line == "exit") break;
    if (line == "stats") {
      out << "stats " << service.stats_line() << "\n";
      continue;
    }
    if (line == "metrics") {
      // One JSON line: the service's own registry plus the process-wide
      // per-phase histograms (populated when serve ran with --metrics or
      // --trace) and the build provenance.  Existing keys are a
      // compatibility surface (tests/integration/test_serve_stdin.cpp) —
      // add, never rename.
      service.refresh_gauges();
      out << "metrics {\"service\":" << service.metrics().report_json()
          << ",\"process\":" << obs::MetricsRegistry::global().report_json()
          << ",\"build\":" << obs::build_info_json() << "}\n";
      out.flush();
      continue;
    }

    net::RequestLine rl = net::parse_request_line(line);
    if (!rl.error.empty()) {
      out << net::error_line(rl.path, rl.error) << "\n";
      continue;
    }
    std::string error;
    auto problem = load_problem_file(rl.path, &error);
    if (!problem) {
      out << net::error_line(rl.path, error) << "\n";
      continue;
    }
    Job job;
    job.set = problem->set;
    job.options.num_bits = sa->bits;
    job.options.self_check = sa->self_check;
    job.restarts = rl.restarts > 0 ? rl.restarts : sa->restarts;
    job.portfolio = sa->portfolio;
    if (rl.backend) job.portfolio.backend = *rl.backend;
    job.tag = rl.path;
    try {
      JobResult r = service.submit(std::move(job)).get();
      out << net::Reply::from_result(problem->set, r).ok_line(rl.path)
          << "\n";
    } catch (const std::exception& e) {
      out << net::error_line(rl.path, e.what()) << "\n";
    }
    out.flush();
  }
  if (!obs_session.write_trace(err)) return 1;
  return 0;
}

int cmd_info(const ParsedArgs& a, std::ostream& out, std::ostream& err) {
  if (a.positional.size() != 1) {
    err << "info needs one file\n";
    return 2;
  }
  auto text = read_file(a.positional[0], err);
  if (!text) return 1;
  switch (sniff_file_kind(*text)) {
    case FileKind::kKiss: {
      KissParseResult r = parse_kiss(*text);
      if (!r.ok()) {
        err << r.error << "\n";
        return 1;
      }
      const Fsm& f = r.fsm;
      out << "KISS2 FSM: " << f.num_inputs << " inputs, " << f.num_outputs
          << " outputs, " << f.num_states() << " states, "
          << f.transitions.size() << " rows\n";
      out << "deterministic: " << (f.is_deterministic() ? "yes" : "no")
          << ", complete: " << (f.is_complete() ? "yes" : "no") << "\n";
      DerivedConstraints d = derive_face_constraints(f);
      out << "face constraints: " << d.set.size() << " ("
          << d.set.num_seed_dichotomies() << " seed dichotomies)\n";
      return 0;
    }
    case FileKind::kPla: {
      PlaParseResult r = parse_pla(*text);
      if (!r.ok()) {
        err << r.error << "\n";
        return 1;
      }
      out << "PLA: " << r.pla.num_inputs << " inputs, " << r.pla.num_outputs
          << " outputs, " << r.pla.rows.size() << " terms, area "
          << r.pla.area() << "\n";
      return 0;
    }
    case FileKind::kCon: {
      ConstraintParseResult r = parse_constraints(*text);
      if (!r.ok()) {
        err << r.error << "\n";
        return 1;
      }
      out << "encoding problem: " << r.set.num_symbols << " symbols, "
          << r.set.size() << " constraints, " << r.set.num_seed_dichotomies()
          << " seed dichotomies, minimum length "
          << Encoding::min_bits(r.set.num_symbols) << " bits\n";
      return 0;
    }
    default:
      err << "cannot determine file type\n";
      return 1;
  }
}

/// `picola sat-export FILE [--bits N] [--card E] [--distinct D]
/// [--selectors] [-o OUT]` — write the SAT reduction of an encoding
/// problem as DIMACS CNF, for diffing the in-tree solver against
/// external ones.  --distinct difference (default) | indicator; lazy has
/// no static clause form, so it cannot be exported.
int cmd_sat_export(const ParsedArgs& a, std::ostream& out, std::ostream& err) {
  if (a.positional.size() != 1) {
    err << "sat-export needs one input file\n";
    return 2;
  }
  auto problem = load_problem(a.positional[0], err);
  if (!problem) return 1;
  int bits = Encoding::min_bits(problem->set.num_symbols);
  if (!int_option(a, "--bits", 1, INT_MAX, &bits, err)) return 2;
  sat::ReductionOptions ro;
  if (a.options.count("--card")) {
    auto c = sat::parse_card_encoding(a.options.at("--card"));
    if (!c) {
      err << "bad --card value (pairwise sequential commander)\n";
      return 2;
    }
    ro.card = *c;
  }
  if (a.options.count("--distinct")) {
    auto d = sat::parse_distinct_encoding(a.options.at("--distinct"));
    if (!d || *d == sat::DistinctEncoding::kLazy) {
      err << "bad --distinct value (difference indicator)\n";
      return 2;
    }
    ro.distinct = *d;
  }
  ro.with_selectors = a.options.count("--selectors") != 0;
  sat::FaceCnf fc;
  try {
    fc = sat::build_face_cnf(problem->set, bits, ro);
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 1;
  }
  std::vector<std::string> comments;
  comments.push_back("picola sat-export " + a.positional[0]);
  {
    std::ostringstream c;
    c << "n=" << problem->set.num_symbols << " bits=" << bits << " card="
      << sat::card_encoding_name(ro.card) << " distinct="
      << sat::distinct_encoding_name(ro.distinct) << " constraints="
      << problem->set.size();
    comments.push_back(c.str());
  }
  comments.push_back("bit b of symbol s is DIMACS variable 1 + s*bits + b");
  std::string text = sat::write_dimacs(fc.cnf, comments);
  if (a.options.count("--output"))
    return write_file(a.options.at("--output"), text, err) ? 0 : 1;
  out << text;
  return 0;
}

}  // namespace

int run(const std::vector<std::string>& args, std::istream& in,
        std::ostream& out, std::ostream& err) {
  auto parsed = parse_args(args, err);
  if (!parsed) return 2;
  if (parsed->command == "encode") return cmd_encode(*parsed, out, err);
  if (parsed->command == "encode-input")
    return cmd_encode_input(*parsed, out, err);
  if (parsed->command == "batch") return cmd_batch(*parsed, out, err);
  if (parsed->command == "serve") return cmd_serve(*parsed, in, out, err);
  if (parsed->command == "client") return cmd_client(*parsed, in, out, err);
  if (parsed->command == "assign") return cmd_assign(*parsed, out, err);
  if (parsed->command == "minimize") return cmd_minimize(*parsed, out, err);
  if (parsed->command == "info") return cmd_info(*parsed, out, err);
  if (parsed->command == "sat-export") return cmd_sat_export(*parsed, out, err);
  err << "unknown command " << parsed->command
      << " (encode encode-input batch serve client assign minimize info "
         "sat-export)\n";
  return 2;
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  return run(args, std::cin, out, err);
}

int main_entry(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run(args, std::cin, std::cout, std::cerr);
}

}  // namespace picola::cli
