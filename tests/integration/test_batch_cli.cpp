// End-to-end tests of the `picola batch` / `picola serve` front-ends over
// the shipped example problems (examples/data), in-process via cli::run.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "constraints/constraint_io.h"
#include "constraints/derive.h"
#include "core/picola.h"
#include "eval/constraint_eval.h"
#include "kiss/kiss_io.h"
#include "net/json.h"

#ifndef PICOLA_EXAMPLES_DIR
#define PICOLA_EXAMPLES_DIR "examples/data"
#endif

namespace picola {
namespace {

namespace fs = std::filesystem;

class BatchCliTest : public ::testing::Test {
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

  std::string write_list(const std::vector<std::string>& files,
                         const std::string& name) {
    std::string path = testing::TempDir() + "picola_batch_" + name;
    std::ofstream out(path);
    out << "# batch list written by test_batch_cli\n";
    for (const std::string& f : files) out << f << "\n";
    return path;
  }

  int run(std::vector<std::string> args, const std::string& input = "") {
    out_.str("");
    err_.str("");
    std::istringstream in(input);
    return cli::run(args, in, out_, err_);
  }

  /// The deterministic per-file portion of the batch output.
  static std::string result_lines(const std::string& text) {
    std::istringstream is(text);
    std::string line, keep;
    while (std::getline(is, line))
      if (!line.empty() && line[0] != '#') keep += line + "\n";
    return keep;
  }

  std::ostringstream out_, err_;
};

TEST_F(BatchCliTest, ExamplesDirectoryIsPopulated) {
  EXPECT_GE(example_files().size(), 5u) << PICOLA_EXAMPLES_DIR;
}

TEST_F(BatchCliTest, ParallelBatchIsByteIdenticalToSequential) {
  std::string list = write_list(example_files(), "det.list");
  ASSERT_EQ(run({"batch", list, "--jobs", "1", "--restarts", "3"}), 0)
      << err_.str();
  std::string sequential = result_lines(out_.str());
  ASSERT_EQ(run({"batch", list, "--jobs", "4", "--restarts", "3"}), 0)
      << err_.str();
  std::string parallel = result_lines(out_.str());
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, parallel);
}

TEST_F(BatchCliTest, BatchMatchesSequentialLibraryRuns) {
  // Every per-file cube count must equal an independent sequential
  // picola_encode_best run on the same problem.
  const int kRestarts = 3;
  std::vector<std::string> files = example_files();
  std::string list = write_list(files, "lib.list");
  ASSERT_EQ(run({"batch", list, "--jobs", "4", "--restarts", "3"}), 0);
  std::istringstream is(result_lines(out_.str()));
  std::string line;
  size_t checked = 0;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string path, field;
    ls >> path;
    long cubes = -1;
    while (ls >> field)
      if (field.rfind("cubes=", 0) == 0) cubes = std::stol(field.substr(6));
    ASSERT_GE(cubes, 0) << line;

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    ConstraintSet set;
    if (path.size() > 4 && path.substr(path.size() - 4) == ".con") {
      ConstraintParseResult r = parse_constraints(ss.str());
      ASSERT_TRUE(r.ok()) << path;
      set = r.set;
    } else {
      KissParseResult r = parse_kiss(ss.str());
      ASSERT_TRUE(r.ok()) << path;
      set = derive_face_constraints(r.fsm).set;
    }
    PicolaResult seq = picola_encode_best(set, kRestarts);
    EXPECT_EQ(cubes, evaluate_constraints(set, seq.encoding).total_cubes)
        << path;
    ++checked;
  }
  EXPECT_EQ(checked, files.size());
}

TEST_F(BatchCliTest, BatchJsonEmitsStats) {
  std::string list = write_list(example_files(), "json.list");
  ASSERT_EQ(run({"batch", list, "--jobs", "2", "--json"}), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("\"files\":["), std::string::npos) << text;
  EXPECT_NE(text.find("\"total_cubes\":"), std::string::npos);
  EXPECT_NE(text.find("\"cache_misses\":"), std::string::npos);
  EXPECT_NE(text.find("\"queue_high_water\":"), std::string::npos);
}

TEST_F(BatchCliTest, BatchJsonEscapesPathsAndReportsThrownJobs) {
  // A path with a tab must come out escaped, and a job that throws (15
  // symbols do not fit in 3 bits) must be listed with its error, not
  // dropped: the whole output parses and holds both entries.
  const std::string tab_path = testing::TempDir() + "picola_batch_a\tb.con";
  std::filesystem::copy_file(PICOLA_EXAMPLES_DIR "/overlap.con", tab_path,
                             fs::copy_options::overwrite_existing);
  const std::string fig1 = PICOLA_EXAMPLES_DIR "/paper_fig1.con";
  std::string list = write_list({tab_path, fig1}, "escape.list");
  EXPECT_EQ(run({"batch", list, "--json", "--bits", "3"}), 1);
  std::string error;
  auto doc = net::JsonValue::parse(out_.str(), &error);
  ASSERT_TRUE(doc) << error << "\n" << out_.str();
  const net::JsonValue* files = doc->find("files");
  ASSERT_TRUE(files && files->is_array());
  ASSERT_EQ(files->items().size(), 2u) << out_.str();
  const net::JsonValue& solved = files->items()[0];
  EXPECT_EQ(solved.find("path")->as_string(), tab_path);
  EXPECT_EQ(solved.find("bits")->as_int(), 3);
  EXPECT_EQ(solved.find("n")->as_int(), 8);
  const net::JsonValue& thrown = files->items()[1];
  EXPECT_EQ(thrown.find("path")->as_string(), fig1);
  EXPECT_EQ(thrown.find("error")->as_string(),
            "picola_encode: code length 3 too small for 15 symbols");
  EXPECT_EQ(doc->find("solved")->as_int(), 1);
  std::remove(tab_path.c_str());
}

TEST_F(BatchCliTest, BatchReportsMissingFilesAndFails) {
  std::string list =
      write_list({example_files()[0], "/nonexistent/problem.con"}, "bad.list");
  EXPECT_EQ(run({"batch", list, "--jobs", "2"}), 1);
  EXPECT_NE(out_.str().find("/nonexistent/problem.con error:"),
            std::string::npos)
      << out_.str();
}

TEST_F(BatchCliTest, BatchRejectsBadOptions) {
  std::string list = write_list(example_files(), "opts.list");
  EXPECT_EQ(run({"batch", list, "--jobs", "0"}), 2);
  EXPECT_EQ(run({"batch", list, "--restarts", "frog"}), 2);
  EXPECT_EQ(run({"batch"}), 2);
}

TEST_F(BatchCliTest, ServeAnswersRequestsAndCachesRepeats) {
  std::string con = example_files()[0];
  for (const std::string& f : example_files())
    if (f.size() > 4 && f.substr(f.size() - 4) == ".con") { con = f; break; }
  std::string script = con + "\n" + con + "\nstats\nquit\n";
  ASSERT_EQ(run({"serve", "--restarts", "2"}, script), 0) << err_.str();
  std::istringstream is(out_.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << out_.str();
  EXPECT_EQ(lines[0].rfind("ok " + con, 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("cached=0"), std::string::npos);
  EXPECT_NE(lines[1].find("cached=1"), std::string::npos);
  // Identical encoding fingerprint on the cached answer.
  EXPECT_EQ(lines[0].substr(0, lines[0].find("cached=")),
            lines[1].substr(0, lines[1].find("cached=")));
  EXPECT_EQ(lines[2].rfind("stats ", 0), 0u) << lines[2];
  EXPECT_NE(lines[2].find("cache 1 hit / 1 miss"), std::string::npos);
}

TEST_F(BatchCliTest, ServeReportsErrorsInline) {
  std::string script = "/missing/file.con\nquit\n";
  ASSERT_EQ(run({"serve"}, script), 0);
  EXPECT_EQ(out_.str().rfind("error /missing/file.con", 0), 0u) << out_.str();
}

TEST_F(BatchCliTest, ServeRejectsPositionalArguments) {
  EXPECT_EQ(run({"serve", "stray"}, ""), 2);
}

}  // namespace
}  // namespace picola
