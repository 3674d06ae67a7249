// Regression tests for stdin front-end EOF handling: a final line that
// arrives without a trailing newline (common when the input is piped
// from printf, a file missing its final newline, or a socket) must be
// processed like any other line, in both `picola serve` and the `picola
// batch` list file.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/cli.h"
#include "net/json.h"

namespace picola {
namespace {

std::string example(const std::string& name) {
  return std::string(PICOLA_EXAMPLES_DIR) + "/" + name;
}

int count_lines_starting(const std::string& text, const std::string& prefix) {
  std::istringstream is(text);
  std::string line;
  int n = 0;
  while (std::getline(is, line))
    if (line.rfind(prefix, 0) == 0) ++n;
  return n;
}

TEST(ServeStdinEof, FinalRequestWithoutNewlineIsProcessed) {
  // No trailing '\n' after the last path.
  std::istringstream in(example("overlap.con") + "\n" +
                        example("paper_fig1.con"));
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"serve"}, in, out, err), 0) << err.str();
  EXPECT_EQ(count_lines_starting(out.str(), "ok "), 2) << out.str();
}

TEST(ServeStdinEof, SingleRequestNoNewline) {
  std::istringstream in(example("overlap.con"));
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"serve"}, in, out, err), 0);
  EXPECT_EQ(count_lines_starting(out.str(), "ok "), 1) << out.str();
}

TEST(ServeStdinEof, FinalStatsCommandWithoutNewline) {
  std::istringstream in(example("overlap.con") + "\nstats");
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"serve"}, in, out, err), 0);
  EXPECT_EQ(count_lines_starting(out.str(), "ok "), 1);
  EXPECT_EQ(count_lines_starting(out.str(), "stats "), 1) << out.str();
}

TEST(ServeStdinEof, TrailingWhitespaceOnlyTailIsIgnored) {
  std::istringstream in(example("overlap.con") + "\n   \t ");
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"serve"}, in, out, err), 0);
  EXPECT_EQ(count_lines_starting(out.str(), "ok "), 1);
  EXPECT_EQ(count_lines_starting(out.str(), "error"), 0) << out.str();
}

TEST(ServeStdinEof, FormFeedAndVerticalTabLinesAreBlank) {
  // \f and \v are whitespace to the request-line tokenizer, so a line of
  // them is blank, not a request for the empty path.
  std::istringstream in(example("overlap.con") + "\n\f\v\n\v");
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"serve"}, in, out, err), 0);
  EXPECT_EQ(count_lines_starting(out.str(), "ok "), 1);
  EXPECT_EQ(count_lines_starting(out.str(), "error"), 0) << out.str();
}

TEST(ServeStdinEof, BatchListFileWithoutTrailingNewline) {
  std::string list_path = ::testing::TempDir() + "/picola_eof_list.txt";
  {
    std::ofstream f(list_path, std::ios::binary);
    f << example("overlap.con") << "\n" << example("paper_fig1.con");
    // deliberately no final '\n'
  }
  std::istringstream in;
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"batch", list_path}, in, out, err), 0) << err.str();
  EXPECT_EQ(count_lines_starting(out.str(), example("overlap.con")), 1);
  EXPECT_EQ(count_lines_starting(out.str(), example("paper_fig1.con")), 1)
      << out.str();
  std::remove(list_path.c_str());
}

// The stdin `metrics` response is a compatibility surface: scripts parse
// it, so the existing key set is locked — new telemetry may add keys but
// never rename or drop these (docs/OBSERVABILITY.md).
TEST(ServeStdinMetrics, ProtocolKeysAreStable) {
  std::istringstream in(example("overlap.con") + "\nmetrics\n");
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"serve"}, in, out, err), 0) << err.str();

  std::string metrics_line;
  std::istringstream is(out.str());
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("metrics ", 0) == 0) metrics_line = line.substr(8);
  ASSERT_FALSE(metrics_line.empty()) << out.str();

  std::string parse_err;
  auto parsed = net::JsonValue::parse(metrics_line, &parse_err);
  ASSERT_TRUE(parsed) << parse_err;

  // Top-level keys: the original two plus the additive build info.
  const net::JsonValue* service = parsed->find("service");
  ASSERT_TRUE(service);
  ASSERT_TRUE(parsed->find("process"));
  ASSERT_TRUE(parsed->find("build"));

  // The service registry report keeps its shape...
  const net::JsonValue* counters = service->find("counters");
  ASSERT_TRUE(counters);
  ASSERT_TRUE(service->find("gauges"));
  const net::JsonValue* histograms = service->find("histograms");
  ASSERT_TRUE(histograms);
  for (const char* key :
       {"service/jobs_submitted", "service/jobs_completed",
        "service/cache_hits", "service/cache_misses",
        "service/restart_tasks"}) {
    EXPECT_TRUE(counters->find(key)) << key;
  }
  // ...including the locked histogram keys (ns block), with the ms duals
  // riding alongside as additions.
  const net::JsonValue* job = histograms->find("service/job");
  ASSERT_TRUE(job);
  for (const char* key : {"count", "sum_ns", "max_ns", "mean_ns", "p50_ns",
                          "p90_ns", "p95_ns", "p99_ns", "p50_ms"}) {
    EXPECT_TRUE(job->find(key)) << key;
  }
}

}  // namespace
}  // namespace picola
