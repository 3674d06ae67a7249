// Pins the bytes of every request front-end: the lines printed by the
// stdin `serve` loop, `batch`, `client` and `client --cluster`, and the
// reply frames of the TCP server, for encode requests on every backend,
// cached repeats, per-request options, every deterministic error code,
// and the message of every rejected integer command-line option.  The
// expected transcript (data/transcript.txt) is plain text; the only
// masked parts are the examples directory, the temp directory, wall
// times, and the `# service:` / `# cluster:` counter lines.
//
// On a mismatch the actual transcript is written next to the test's temp
// files and its path printed, so a deliberate protocol change can be
// reviewed with diff and the expected file replaced.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"

namespace picola::net {
namespace {

const std::string kExamples = PICOLA_EXAMPLES_DIR;

std::string example(const std::string& name) { return kExamples + "/" + name; }

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size()))
    s.replace(at, from.size(), to);
  return s;
}

/// Remove everything that depends on the machine or on timing.
std::string mask(std::string text) {
  text = replace_all(text, kExamples, "<examples>");
  text = replace_all(text, ::testing::TempDir(), "<tmp>/");
  static const std::regex wall(R"("wall_ms":[-0-9.e+]+)");
  static const std::regex ms_tail(R"(, [-0-9.e+]+ ms$)");
  std::istringstream is(text);
  std::ostringstream os;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("# service:", 0) == 0) line = "# service: <counters>";
    if (line.rfind("# cluster:", 0) == 0) line = "# cluster: <counters>";
    line = std::regex_replace(line, wall, "\"wall_ms\":<ms>");
    if (line.rfind("# ", 0) == 0)
      line = std::regex_replace(line, ms_tail, ", <ms> ms");
    os << line << "\n";
  }
  return os.str();
}

ServerOptions server_options() {
  ServerOptions o;
  o.service.num_threads = 2;
  o.service.cache_capacity = 64;
  return o;
}

/// One CLI run, rendered as its exit code and both output streams.
std::string cli_section(const std::string& title,
                        const std::vector<std::string>& args,
                        const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out, err;
  int rc = cli::run(args, in, out, err);
  std::ostringstream os;
  os << "== " << title << " (exit " << rc << ")\n"
     << out.str() << "-- stderr\n"
     << err.str();
  return os.str();
}

/// Request lines shared by the line front-ends: every backend on `.con`
/// and KISS2 problems, a cached repeat, per-request options, malformed
/// options and a missing file.
std::string request_lines() {
  std::ostringstream s;
  s << example("overlap.con") << "\n"
    << example("overlap.con") << "\n"
    << example("paper_fig1.con") << " --restarts 2\n"
    << example("microcode.con") << " --backend sat --restarts 3\n"
    << example("vending.kiss2") << " --backend sat\n"
    << example("traffic.kiss2") << " --backend anneal\n"
    << example("elevator.kiss2") << " --backend portfolio\n"
    << example("elevator.kiss2") << " --restarts 1 --backend picola\n"
    << example("overlap.con") << " --restarts 0\n"
    << example("overlap.con") << " --restarts\n"
    << example("overlap.con") << " --backend cplex\n"
    << example("overlap.con") << " --frobnicate\n"
    << "no/such/file.con\n";
  return s.str();
}

std::string write_temp(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

std::string stdin_serve_transcript() {
  return cli_section("serve", {"serve", "--jobs", "2"},
                     request_lines() + "quit\n");
}

std::string batch_transcript() {
  std::string list = write_temp(
      "picola_transcript.list",
      "# transcript batch\n" + example("elevator.kiss2") + "\n" +
          example("microcode.con") + "\n" + example("overlap.con") + "\n" +
          example("paper_fig1.con") + "\n" + example("traffic.kiss2") +
          "\n" + example("vending.kiss2") + "\nno/such/file.con\n");
  std::string small = write_temp(
      "picola_transcript_small.list",
      example("overlap.con") + "\nno/such/file.con\n");
  return cli_section("batch", {"batch", list, "--jobs", "2"}, "") +
         cli_section("batch --backend portfolio --restarts 2",
                     {"batch", list, "--jobs", "2", "--backend", "portfolio",
                      "--restarts", "2"},
                     "") +
         cli_section("batch --bits 1",
                     {"batch", small, "--jobs", "2", "--bits", "1"}, "");
}

std::string client_transcript() {
  Server server(server_options());
  server.start();
  const std::string hp = "127.0.0.1:" + std::to_string(server.port());
  std::string t = cli_section("client", {"client", hp},
                              "ping\n" + request_lines());
  t += cli_section(
      "client --inline --backend sat --deadline-ms 60000",
      {"client", hp, "--inline", "--backend", "sat", "--deadline-ms", "60000"},
      example("overlap.con") + "\n" + example("vending.kiss2") +
          " --backend picola\n" + example("overlap.con") +
          " --restarts 9999\nno/such/file.con\n");
  t += cli_section("client shutdown", {"client", hp},
                   example("overlap.con") + "\nshutdown\n" +
                       example("paper_fig1.con") + "\n");
  server.stop();
  return t;
}

std::string cluster_transcript() {
  Server a(server_options());
  Server b(server_options());
  a.start();
  b.start();
  const std::string members = "127.0.0.1:" + std::to_string(a.port()) +
                              ",127.0.0.1:" + std::to_string(b.port());
  std::string bad = write_temp("picola_transcript_bad.con", "not a problem\n");
  std::string t = cli_section(
      "client --cluster", {"client", "--cluster", members},
      request_lines() + bad + "\nshutdown\n" + example("overlap.con") +
          " --restarts 2000\n");
  t += cli_section("client --cluster --backend anneal --deadline-ms 60000",
                   {"client", "--cluster", members, "--backend", "anneal",
                    "--deadline-ms", "60000"},
                   example("traffic.kiss2") + "\n" + example("overlap.con") +
                       " --backend picola\n");
  a.stop();
  b.stop();
  return t;
}

/// Every integer option rejected once: exit code and message.
std::string option_error_transcript() {
  const std::string con = example("overlap.con");
  const std::string list = write_temp("picola_transcript_opts.list", con);
  const std::vector<std::vector<std::string>> runs = {
      {"encode", con, "--bits", "-1"},
      {"encode", con, "--seed", "x"},
      {"encode", con, "--backend", "sat", "--restarts", "0"},
      {"encode", con, "--backend", "sat", "--sat-conflicts", "-1"},
      {"batch", list, "--jobs", "0"},
      {"batch", list, "--restarts", "0"},
      {"batch", list, "--cache", "-1"},
      {"batch", list, "--bits", "-1"},
      {"batch", list, "--seed", "-1"},
      {"batch", list, "--snapshot-interval", "x"},
      {"batch", list, "--snapshot-interval", "5"},
      {"serve", "--tcp", "70000"},
      {"serve", "--tcp", "0", "--max-inflight", "0"},
      {"serve", "--tcp", "0", "--idle-timeout-ms", "-1"},
      {"serve", "--tcp", "0", "--max-frame-bytes", "10"},
      {"serve", "--tcp", "0", "--retry-after-ms", "60001"},
      {"serve", "--tcp", "0", "--admin-port", "70000"},
      {"serve", "--tcp", "0", "--slow-ms", "-1"},
      {"serve", "--tcp", "0", "--peers", "127.0.0.1:1,127.0.0.1:2", "--self",
       "127.0.0.1:1", "--peer-timeout-ms", "0"},
      {"client", "127.0.0.1:1", "--deadline-ms", "0"},
      {"client", "127.0.0.1:1", "--backend", "cplex"},
      {"client", "127.0.0.1:1", "--retries", "1001"},
      {"client", "127.0.0.1:1", "--timeout-ms", "0"},
      {"client", "--cluster", "127.0.0.1:1", "--timeout-ms", "0"},
      {"client", "--cluster", "127.0.0.1:1", "--hedge-ms", "-1"},
      {"client", "--cluster", "127.0.0.1:1", "--seed", "-1"},
      {"client", "--cluster", "127.0.0.1:1", "--deadline-ms", "86400001"},
      {"client", "--cluster", "127.0.0.1:1", "--backend", "cplex"},
      {"sat-export", con, "--bits", "0"},
  };
  std::string t;
  for (const auto& args : runs) {
    std::string title;
    for (const std::string& a : args) title += (title.empty() ? "" : " ") + a;
    t += cli_section(title, args, "");
  }
  return t;
}

/// Raw frames: each request payload and the reply frame it got.
std::string frame_transcript() {
  std::vector<std::string> requests = {
      // Encode requests: path and inline, every backend, options.
      R"({"id":1,"path":")" + example("overlap.con") + R"("})",
      R"({"id":2,"path":")" + example("overlap.con") + R"("})",
      R"({"id":"kiss","path":")" + example("traffic.kiss2") +
          R"(","backend":"sat","restarts":2})",
      R"({"id":[3],"path":")" + example("paper_fig1.con") +
          R"(","backend":"anneal","bits":5})",
      R"({"path":")" + example("elevator.kiss2") +
          R"(","backend":"portfolio","deadline_ms":60000})",
      R"({"id":4,"con":".n 4\n0 1\n1 2\n.e\n","restarts":1})",
      R"({"id":5,"path":")" + example("microcode.con") +
          R"(","trace_id":"00000000deadbeef","parent_span":"12"})",
      R"({"id":6,"path":")" + example("overlap.con") +
          R"(","con":5,"backend":"picola"})",
      // Commands.
      R"({"id":7,"cmd":"ping"})",
      // bad_request, one variant each.
      "this is not json",
      "[1,2]",
      R"({"id":8,"cmd":5})",
      R"({"id":9,"cmd":"frobnicate"})",
      R"({"id":10,"cmd":"peek"})",
      R"({"id":11,"cmd":"peek","fp":"xyz"})",
      R"({"id":12})",
      R"({"id":13,"con":5})",
      R"({"id":14,"path":")" + example("overlap.con") + R"(","restarts":0})",
      R"({"id":15,"path":")" + example("overlap.con") +
          R"(","restarts":1025})",
      R"({"id":16,"path":")" + example("overlap.con") +
          R"(","restarts":"2"})",
      R"({"id":17,"path":")" + example("overlap.con") + R"(","bits":-1})",
      R"({"id":18,"path":")" + example("overlap.con") + R"(","bits":32})",
      R"({"id":19,"path":")" + example("overlap.con") +
          R"(","backend":"cplex"})",
      R"({"id":20,"path":")" + example("overlap.con") + R"(","backend":1})",
      R"({"id":21,"path":")" + example("overlap.con") +
          R"(","deadline_ms":0})",
      R"({"id":22,"path":")" + example("overlap.con") +
          R"(","deadline_ms":86400001})",
      R"({"id":23,"path":")" + example("overlap.con") +
          R"(","trace_id":"xyz"})",
      R"({"id":24,"path":")" + example("overlap.con") +
          R"(","trace_id":"00000000000000001"})",
      R"({"id":25,"path":")" + example("overlap.con") +
          R"(","parent_span":""})",
      // bad_problem and encode_failed.
      R"({"id":26,"con":"not a constraint file"})",
      R"({"id":27,"path":"no/such/file.con"})",
      R"({"id":28,"path":")" + example("overlap.con") + R"(","bits":1})",
  };
  Server server(server_options());
  server.start();
  ServerOptions no_paths = server_options();
  no_paths.allow_paths = false;
  Server closed(no_paths);
  closed.start();

  std::ostringstream os;
  auto exchange = [&os](Client& c, const std::string& payload) {
    os << "> " << payload << "\n";
    std::string error;
    if (!c.send(payload, &error)) {
      os << "! " << error << "\n";
      return;
    }
    auto reply = c.recv(&error);
    os << "< " << (reply ? *reply : "! " + error) << "\n";
  };
  os << "== frames\n";
  Client c;
  EXPECT_TRUE(c.connect("127.0.0.1", server.port()));
  for (const std::string& r : requests) exchange(c, r);
  os << "== frames --no-paths\n";
  Client d;
  EXPECT_TRUE(d.connect("127.0.0.1", closed.port()));
  exchange(d, R"({"id":1,"path":")" + example("overlap.con") + R"("})");
  exchange(d, R"({"id":2,"con":".n 3\n0 1\n.e\n"})");
  server.stop();
  closed.stop();
  return os.str();
}

TEST(Transcript, FrontEndsAndReplyFramesMatchThePinnedBytes) {
  const std::string actual =
      mask(stdin_serve_transcript() + batch_transcript() +
           client_transcript() + cluster_transcript() + frame_transcript() +
           option_error_transcript());
  const std::string expected_path =
      std::string(PICOLA_TEST_DATA_DIR) + "/transcript.txt";
  std::ifstream in(expected_path);
  ASSERT_TRUE(in) << "cannot open " << expected_path;
  std::stringstream expected;
  expected << in.rdbuf();
  if (actual != expected.str()) {
    const std::string out_path = ::testing::TempDir() + "transcript.actual";
    std::ofstream(out_path) << actual;
    FAIL() << "transcript differs from " << expected_path
           << "; actual written to " << out_path;
  }
}

}  // namespace
}  // namespace picola::net
