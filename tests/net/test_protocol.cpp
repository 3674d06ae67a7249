// net/protocol.h — the request/reply schema shared by every front-end:
// request-line parsing, the JSON encode request's bounds and details, the
// reply's conversions and lines, plus a seeded mutation test that feeds
// damaged requests and problem files to every parser on the request path.

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/hex.h"
#include "base/problem_io.h"
#include "service/service.h"

namespace picola::net {
namespace {

using portfolio::BackendKind;

std::string example_text(const std::string& name) {
  std::ifstream in(std::string(PICOLA_EXAMPLES_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Protocol, Hex64RoundTrips) {
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(0xDEADBEEFULL), "00000000deadbeef");
  uint64_t v = 0;
  ASSERT_TRUE(parse_hex64("DeadBeef", &v));
  EXPECT_EQ(v, 0xDEADBEEFULL);
  ASSERT_TRUE(parse_hex64(hex64(~0ULL), &v));
  EXPECT_EQ(v, ~0ULL);
  EXPECT_FALSE(parse_hex64("", &v));
  EXPECT_FALSE(parse_hex64("12345678901234567", &v));
  EXPECT_FALSE(parse_hex64("12g4", &v));
}

TEST(Protocol, RequestLineOptions) {
  RequestLine r = parse_request_line("a.con --backend sat --restarts 3");
  EXPECT_EQ(r.path, "a.con");
  EXPECT_EQ(r.restarts, 3);
  EXPECT_EQ(r.backend, BackendKind::kSat);
  EXPECT_EQ(r.error, "");

  r = parse_request_line("a.con");
  EXPECT_EQ(r.restarts, 0);
  EXPECT_FALSE(r.backend);

  r = parse_request_line("a.con --restarts 2 --restarts 5");
  EXPECT_EQ(r.restarts, 5);  // the last value wins

  for (const char* bad :
       {"a.con --restarts 0", "a.con --restarts", "a.con --restarts x",
        "a.con --restarts 99999999999", "a.con --backend cplex",
        "a.con --backend", "a.con extra", "a.con --restarts 2 --frob"}) {
    r = parse_request_line(bad);
    EXPECT_EQ(r.path, "a.con") << bad;
    EXPECT_EQ(r.error, "bad request options") << bad;
  }
  EXPECT_EQ(error_line("a.con", "boom"), "error a.con: boom");
}

TEST(Protocol, EncodeRequestFieldsAndDefaults) {
  std::string detail;
  auto v = JsonValue::parse(
      R"({"id":[1],"path":"p","con":"c","restarts":7,"bits":4,)"
      R"("backend":"anneal","deadline_ms":50,"trace_id":"ab",)"
      R"("parent_span":"C"})");
  ASSERT_TRUE(v);
  auto r = EncodeRequest::from_json(*v, &detail);
  ASSERT_TRUE(r) << detail;
  EXPECT_EQ(r->id.dump(), "[1]");
  EXPECT_EQ(r->con, "c");
  EXPECT_EQ(r->path, "p");
  EXPECT_EQ(r->restarts, 7);
  EXPECT_EQ(r->bits, 4);
  EXPECT_EQ(r->backend, BackendKind::kAnneal);
  EXPECT_EQ(r->deadline_ms, 50);
  EXPECT_EQ(r->trace_id, 0xABULL);
  EXPECT_EQ(r->parent_span, 0xCULL);
  EXPECT_EQ(r->to_json().dump(),
            R"({"backend":"anneal","bits":4,"con":"c","deadline_ms":50,)"
            R"("id":[1],"parent_span":"000000000000000c","path":"p",)"
            R"("restarts":7,"trace_id":"00000000000000ab"})");

  // Absent fields stay absent (the server's defaults apply), and a
  // non-string con falls back to the path.
  r = EncodeRequest::from_json(*JsonValue::parse(R"({"con":5,"path":"p"})"),
                               &detail);
  ASSERT_TRUE(r);
  EXPECT_FALSE(r->con);
  EXPECT_FALSE(r->restarts || r->bits || r->backend);
  EXPECT_EQ(r->to_json().dump(), R"({"path":"p"})");

  // Doubles are read as their integer part, as before the schema.
  r = EncodeRequest::from_json(
      *JsonValue::parse(R"({"path":"p","restarts":2.9,"bits":1e19})"),
      &detail);
  EXPECT_FALSE(r);
  EXPECT_EQ(detail, "bits must be in [0, 31]");
}

TEST(Protocol, ReplyConvertsAndRenders) {
  ConstraintSet set;
  set.num_symbols = 4;
  set.add({0, 1});
  set.add({1, 2});
  JobResult jr;
  jr.picola.encoding = Encoding{4, 2, {0, 1, 2, 3}};
  jr.total_cubes = 3;
  jr.backend = BackendKind::kSat;
  jr.cache_hit = true;
  jr.wall_ms = 1.5;
  Reply r = Reply::from_result(set, jr);
  EXPECT_EQ(r.n, 4);
  EXPECT_EQ(r.bits, 2);
  EXPECT_EQ(r.cubes, 3);
  EXPECT_EQ(r.satisfied, 1);  // {0,1} is a face of 00,01; {1,2} is not
  EXPECT_EQ(r.constraints, 2);
  EXPECT_EQ(r.enc, encoding_fingerprint(jr.picola.encoding));
  const std::string summary = "n=4 bits=2 cubes=3 satisfied=1/2 enc=" +
                              hex64(r.enc) + " backend=sat";
  EXPECT_EQ(r.summary(), summary);
  EXPECT_EQ(r.ok_line("x.con"), "ok x.con " + summary + " cached=1");

  r.trace_id = 0x42;
  auto back = Reply::from_json(*JsonValue::parse(r.to_json().dump()));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->to_json().dump(), r.to_json().dump());
  EXPECT_EQ(r.fields_json().dump(),
            R"({"backend":"sat","bits":2,"constraints":2,"cubes":3,"enc":")" +
                hex64(r.enc) + R"(","n":4,"satisfied":1})");

  const JsonValue full = r.to_json();
  JsonValue missing = JsonValue::make_object();
  for (const auto& [key, value] : full.members())
    if (key != "cubes") missing.set(key, value);
  EXPECT_FALSE(Reply::from_json(missing));
}

// ---- mutation test -------------------------------------------------------

/// Every `bad_request` detail EncodeRequest::from_json documents.
const std::set<std::string>& request_details() {
  static const std::set<std::string> d = {
      "request needs a \"con\" or \"path\" string (or a \"cmd\")",
      "restarts must be in [1, 1024]",
      "bits must be in [0, 31]",
      "backend must be picola, sat, anneal or portfolio",
      "deadline_ms must be in [1, 86400000]",
      "trace_id must be 1-16 hex digits",
      "parent_span must be 1-16 hex digits",
  };
  return d;
}

void expect_in_bounds(const EncodeRequest& r) {
  EXPECT_TRUE(r.con || r.path);
  EXPECT_TRUE(!r.restarts || (*r.restarts >= 1 && *r.restarts <= 1024));
  EXPECT_TRUE(!r.bits || (*r.bits >= 0 && *r.bits <= 31));
  EXPECT_TRUE(r.deadline_ms >= 0 && r.deadline_ms <= 86'400'000);
}

/// A valid request must survive to_json -> dump -> parse -> from_json.
void expect_round_trip(const EncodeRequest& r) {
  const std::string text = r.to_json().dump();
  std::string detail;
  auto back = EncodeRequest::from_json(*JsonValue::parse(text), &detail);
  ASSERT_TRUE(back) << detail << " for " << text;
  EXPECT_EQ(back->to_json().dump(), text);
}

/// A parsed problem must be a well-formed constraint set.
void check_problem(const std::string& text) {
  std::string error;
  auto p = parse_problem_text(text, &error);
  if (!p) {
    EXPECT_FALSE(error.empty());
    return;
  }
  EXPECT_EQ(p->set.validate(), "");
}

void check_json(const std::string& text) {
  std::string error;
  auto v = JsonValue::parse(text, &error);
  if (!v) {
    EXPECT_FALSE(error.empty());  // answered bad_request with this detail
    return;
  }
  auto again = JsonValue::parse(v->dump());
  ASSERT_TRUE(again) << v->dump();
  EXPECT_EQ(again->dump(), v->dump());
  if (!v->is_object() || v->find("cmd")) return;
  std::string detail;
  auto r = EncodeRequest::from_json(*v, &detail);
  if (!r) {
    EXPECT_EQ(request_details().count(detail), 1u) << detail;
    return;
  }
  expect_in_bounds(*r);
  expect_round_trip(*r);
  if (r->con) check_problem(*r->con);
}

/// Each line the way the line front-ends see it (blank and `#` lines
/// skipped), then as the JSON request the clients build from it.
void check_lines(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const size_t b = line.find_first_not_of(" \t\n\v\f\r");
    if (b == std::string::npos || line[b] == '#') continue;
    RequestLine rl = parse_request_line(line);
    if (!rl.error.empty()) {
      EXPECT_EQ(rl.error, "bad request options");
      continue;
    }
    EXPECT_FALSE(rl.path.empty());
    EXPECT_GE(rl.restarts, 0);
    EncodeRequest r;
    r.id = JsonValue::make_string(rl.path);
    r.path = rl.path;
    if (rl.restarts > 0) r.restarts = rl.restarts;
    r.backend = rl.backend;
    std::string detail;
    auto back = EncodeRequest::from_json(r.to_json(), &detail);
    if (rl.restarts > 1024) {  // the server's bound is tighter
      EXPECT_EQ(detail, "restarts must be in [1, 1024]");
      continue;
    }
    ASSERT_TRUE(back) << detail << " for " << line;
    EXPECT_EQ(back->to_json().dump(), r.to_json().dump());
  }
}

/// Byte flips, inserts (random or protocol-significant tokens),
/// truncation and splices over a corpus of valid inputs.
class Mutator {
 public:
  Mutator(uint64_t seed, std::vector<std::string> corpus)
      : rng_(seed), corpus_(std::move(corpus)) {}

  std::string next() {
    std::string s = pick();
    const int rounds = 1 + static_cast<int>(below(4));
    for (int i = 0; i < rounds; ++i) {
      switch (below(5)) {
        case 0:
          if (!s.empty()) s[below(s.size())] = static_cast<char>(below(256));
          break;
        case 1:
          if (!s.empty())
            s[below(s.size())] ^= static_cast<char>(1u << below(8));
          break;
        case 2: {
          static const char* kTokens[] = {
              "\"", "\\", "{", "}", "[", "]", ",", ":", "-", "0", "1e19",
              "9223372036854775808", "1025", "\\u0000", "\\ud800", "null",
              "\"cmd\":", "\"restarts\":", "\"con\":", " --restarts ",
              " --backend ", "sat", "\n", ".n ", ".i ", ".s ", "*", ".e\n"};
          std::string ins =
              below(2) ? kTokens[below(std::size(kTokens))]
                       : std::string(1, static_cast<char>(below(256)));
          s.insert(below(s.size() + 1), ins);
          break;
        }
        case 3:
          s.resize(below(s.size() + 1));
          break;
        default: {
          const std::string& other = pick();
          s = s.substr(0, below(s.size() + 1)) +
              other.substr(below(other.size() + 1));
        }
      }
    }
    return s;
  }

 private:
  const std::string& pick() { return corpus_[below(corpus_.size())]; }
  size_t below(size_t n) { return n == 0 ? 0 : rng_() % n; }

  std::mt19937_64 rng_;
  std::vector<std::string> corpus_;
};

std::vector<std::string> seed_corpus() {
  std::vector<std::string> corpus;
  const char* files[] = {"overlap.con",   "paper_fig1.con", "microcode.con",
                         "traffic.kiss2", "vending.kiss2",  "elevator.kiss2"};
  for (const char* f : files) {
    const std::string text = example_text(f);
    corpus.push_back(text);
    EncodeRequest r;
    r.id = JsonValue::make_int(7);
    r.con = text;
    r.restarts = 3;
    r.backend = BackendKind::kPortfolio;
    r.deadline_ms = 250;
    r.trace_id = 0xFEED;
    corpus.push_back(r.to_json().dump());
    corpus.push_back(std::string(f) + " --restarts 2 --backend sat\n" + f +
                     "\n# comment\nquit\n");
  }
  // A one-state machine (found by this test): refused at parse time.
  corpus.push_back(".i 2\n.o 6\n.p 10\n.s 4\n.r HG\n0- HG HG 100001\n"
                   "10 HG HG 100001\n");
  corpus.push_back(R"({"path":"a.con","bits":3,"parent_span":"01"})");
  corpus.push_back(R"({"cmd":"peek","fp":"00ff","id":null})");
  return corpus;
}

TEST(ProtocolFuzz, MutatedRequestsEndValidOrWithADocumentedError) {
  // A fixed seed and input budget: about 1 s in Release, 5 s under
  // ASan+UBSan.  A failure prints the input, to be kept as a regression
  // case in the tests above.
  Mutator m(20261018, seed_corpus());
  for (int i = 0; i < 40'000; ++i) {
    const std::string input = m.next();
    SCOPED_TRACE(testing::Message() << "input " << i << ": "
                                    << JsonValue::make_string(input).dump());
    check_json(input);
    check_lines(input);
    check_problem(input);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

}  // namespace
}  // namespace picola::net
