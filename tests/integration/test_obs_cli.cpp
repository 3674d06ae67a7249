// End-to-end tests of the observability front-ends: `--trace` Chrome
// trace export, `--metrics` reports, `encode --stats-json`, and the
// `metrics` command in `picola serve` — all in-process via cli::run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.h"

#ifndef PICOLA_EXAMPLES_DIR
#define PICOLA_EXAMPLES_DIR "examples/data"
#endif

namespace picola {
namespace {

namespace fs = std::filesystem;

/// Minimal recursive-descent JSON checker — enough to assert the CLI
/// emits well-formed documents without pulling in a JSON library.
class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    c.skip_ws();
    if (!c.value()) return false;
    c.skip_ws();
    return c.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& t) : t_(t) {}

  bool value() {
    if (pos_ >= t_.size()) return false;
    switch (t_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < t_.size() && t_[pos_] != '"') {
      if (t_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= t_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool number() {
    size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < t_.size() &&
           (std::isdigit(static_cast<unsigned char>(t_[pos_])) ||
            t_[pos_] == '.' || t_[pos_] == 'e' || t_[pos_] == 'E' ||
            t_[pos_] == '+' || t_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    size_t n = std::string(word).size();
    if (t_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < t_.size() ? t_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < t_.size() &&
           std::isspace(static_cast<unsigned char>(t_[pos_])))
      ++pos_;
  }

  const std::string& t_;
  size_t pos_ = 0;
};

class ObsCliTest : public ::testing::Test {
 protected:
  static std::vector<std::string> example_files() {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(PICOLA_EXAMPLES_DIR)) {
      std::string ext = entry.path().extension().string();
      if (ext == ".con" || ext == ".kiss2")
        files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  static std::string first_con_file() {
    for (const std::string& f : example_files())
      if (f.size() > 4 && f.substr(f.size() - 4) == ".con") return f;
    return example_files().front();
  }

  std::string write_list(const std::string& name) {
    std::string path = testing::TempDir() + "picola_obs_" + name;
    std::ofstream out(path);
    for (const std::string& f : example_files()) out << f << "\n";
    return path;
  }

  std::string temp_path(const std::string& name) {
    return testing::TempDir() + "picola_obs_" + name;
  }

  int run(std::vector<std::string> args, const std::string& input = "") {
    out_.str("");
    err_.str("");
    std::istringstream in(input);
    return cli::run(args, in, out_, err_);
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  static std::string result_lines(const std::string& text) {
    std::istringstream is(text);
    std::string line, keep;
    while (std::getline(is, line))
      if (!line.empty() && line[0] != '#') keep += line + "\n";
    return keep;
  }

  std::ostringstream out_, err_;
};

TEST_F(ObsCliTest, JsonCheckerSanity) {
  EXPECT_TRUE(JsonChecker::valid("{\"a\":[1,2.5,\"x\"],\"b\":null}"));
  EXPECT_TRUE(JsonChecker::valid("[]"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\":}"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\":1} trailing"));
  EXPECT_FALSE(JsonChecker::valid("[1,2"));
}

TEST_F(ObsCliTest, BatchTraceEmitsValidChromeTraceAcrossLayers) {
  std::string list = write_list("trace.list");
  std::string trace = temp_path("trace.json");
  ASSERT_EQ(run({"batch", list, "--jobs", "2", "--trace", trace}), 0)
      << err_.str();
  std::string text = read_file(trace);
  ASSERT_FALSE(text.empty()) << trace;
  EXPECT_TRUE(JsonChecker::valid(text)) << text.substr(0, 400);
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
#ifndef PICOLA_OBS_DISABLED
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  // Spans from the core, the service, and the cache all land in one file.
  EXPECT_NE(text.find("\"name\":\"picola/encode\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"picola/classify\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"service/job\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"service/restart_task\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"cache/lookup\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"picola\""), std::string::npos);
#endif
}

TEST_F(ObsCliTest, BatchMetricsPrintsPerPhaseAndServiceReports) {
  std::string list = write_list("metrics.list");
  ASSERT_EQ(run({"batch", list, "--jobs", "2", "--metrics"}), 0)
      << err_.str();
  std::string text = out_.str();
  EXPECT_NE(text.find("# metrics (per-phase, process-wide):"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# metrics (this service):"), std::string::npos);
#ifndef PICOLA_OBS_DISABLED
  // The process-wide per-phase histograms need the macros compiled in.
  EXPECT_NE(text.find("# picola/encode count="), std::string::npos);
  EXPECT_NE(text.find("# espresso/eval count="), std::string::npos);
  // Cost-kernel quality counters: constraints scored, and how many of
  // them needed ESPRESSO.
  EXPECT_NE(text.find("# eval/constraints count="), std::string::npos);
  EXPECT_NE(text.find("# eval/espresso_fallbacks count="), std::string::npos);
#endif
  // Service bookkeeping bypasses the macros and is always present.
  EXPECT_NE(text.find("# service/jobs_submitted count="), std::string::npos);
  EXPECT_NE(text.find("p99_ms="), std::string::npos);
}

TEST_F(ObsCliTest, BatchJsonMetricsStaysValidJson) {
  std::string list = write_list("jm.list");
  ASSERT_EQ(run({"batch", list, "--jobs", "2", "--json", "--metrics"}), 0)
      << err_.str();
  std::string text = out_.str();
  // Strip the trailing newline; the payload must be one JSON document.
  while (!text.empty() && text.back() == '\n') text.pop_back();
  EXPECT_TRUE(JsonChecker::valid(text)) << text.substr(0, 400);
  EXPECT_NE(text.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(text.find("\"service_metrics\":{"), std::string::npos);
#ifndef PICOLA_OBS_DISABLED
  EXPECT_NE(text.find("\"picola/encode\":{\"count\":"), std::string::npos);
#endif
}

TEST_F(ObsCliTest, EncodeStatsJsonEmitsTimedPhaseBreakdown) {
  std::string con = first_con_file();
  ASSERT_EQ(run({"encode", con, "--algorithm", "picola", "--stats-json"}), 0)
      << err_.str();
  std::istringstream is(out_.str());
  std::string line, json;
  while (std::getline(is, line))
    if (!line.empty() && line[0] == '{') json = line;
  ASSERT_FALSE(json.empty()) << out_.str();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"classify_calls\":"), std::string::npos);
  EXPECT_NE(json.find("\"classify_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"column_ms\":["), std::string::npos);
  // Classify-call counts are plain bookkeeping, filled in every build.
  EXPECT_EQ(json.find("\"classify_calls\":0,"), std::string::npos) << json;
#ifndef PICOLA_OBS_DISABLED
  // The obs session is live during --stats-json, so per-column timings
  // are real (non-empty) when the spans are compiled in.
  EXPECT_EQ(json.find("\"column_ms\":[]"), std::string::npos) << json;
#endif
}

TEST_F(ObsCliTest, EncodeStatsJsonNeedsPicolaAlgorithm) {
  std::string con = first_con_file();
  EXPECT_EQ(run({"encode", con, "--algorithm", "exact", "--stats-json"}), 2);
}

TEST_F(ObsCliTest, ServeMetricsCommandAnswersWithJson) {
  std::string con = first_con_file();
  std::string script = con + "\nmetrics\nquit\n";
  ASSERT_EQ(run({"serve", "--restarts", "2"}, script), 0) << err_.str();
  std::istringstream is(out_.str());
  std::string line, metrics_line;
  while (std::getline(is, line))
    if (line.rfind("metrics ", 0) == 0) metrics_line = line;
  ASSERT_FALSE(metrics_line.empty()) << out_.str();
  std::string json = metrics_line.substr(std::string("metrics ").size());
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"service\":{"), std::string::npos);
  EXPECT_NE(json.find("\"process\":{"), std::string::npos);
  EXPECT_NE(json.find("\"service/jobs_submitted\":1"), std::string::npos)
      << json;
}

TEST_F(ObsCliTest, TracingDoesNotPerturbResults) {
  std::string list = write_list("det.list");
  std::string trace = temp_path("det_trace.json");
  ASSERT_EQ(run({"batch", list, "--jobs", "2", "--restarts", "2"}), 0);
  std::string plain = result_lines(out_.str());
  ASSERT_EQ(run({"batch", list, "--jobs", "2", "--restarts", "2", "--trace",
                 trace, "--metrics"}),
            0);
  std::string traced = result_lines(out_.str());
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, traced);
}

}  // namespace
}  // namespace picola
