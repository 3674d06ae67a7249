// Pins the bytes of every request front-end: the lines printed by the
// stdin `serve` loop, `batch`, `client` and `client --cluster`, and the
// reply frames of the TCP server, for encode requests on every backend,
// cached repeats, per-request options, every deterministic error code,
// and the message of every rejected integer command-line option.  The
// expected transcript (data/transcript.txt) is plain text; the only
// masked parts are the examples directory, the temp directory, wall
// times, and the `# service:` / `# cluster:` counter lines.
//
// A second pin (data/stats_views.txt) covers those counter lines and
// every other stats view after fixed scripts: the `stats` reply frame,
// stdin serve's `stats` line, batch's `# service:` line and --json
// "stats" object, `serve --tcp`'s `# net:` / `# service:` exit lines,
// the `# cluster:` line, and /statusz with and without a cache dir.  It
// masks only timings (`*_ms`), uptime, snapshot age, build provenance
// and the scheduling-dependent queue high-water mark.
//
// On a mismatch the actual text is written next to the test's temp files
// and its path printed, so a deliberate change can be reviewed with diff
// and the expected file replaced.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <regex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "http_get.h"
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

/// Send one request frame and record it with the reply frame it got.
void exchange(Client& c, const std::string& payload, std::ostream& os) {
  os << "> " << payload << "\n";
  std::string error;
  if (!c.send(payload, &error)) {
    os << "! " << error << "\n";
    return;
  }
  auto reply = c.recv(&error);
  os << "< " << (reply ? *reply : "! " + error) << "\n";
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
  os << "== frames\n";
  Client c;
  EXPECT_TRUE(c.connect("127.0.0.1", server.port()));
  for (const std::string& r : requests) exchange(c, r, os);
  os << "== frames --no-paths\n";
  Client d;
  EXPECT_TRUE(d.connect("127.0.0.1", closed.port()));
  exchange(d, R"({"id":1,"path":")" + example("overlap.con") + R"("})", os);
  exchange(d, R"({"id":2,"con":".n 3\n0 1\n.e\n"})", os);
  server.stop();
  closed.stop();
  return os.str();
}

// ---- stats views -------------------------------------------------------

/// The stats views' masks: timings, uptime, snapshot age, build
/// provenance and the queue high-water mark (it depends on how fast the
/// workers dequeue).
std::string mask_stats(std::string text) {
  text = replace_all(text, kExamples, "<examples>");
  text = replace_all(text, ::testing::TempDir(), "<tmp>/");
  static const std::pair<std::regex, const char*> rules[] = {
      {std::regex(R"(("[a-z_]*_ms"):[-0-9.e+]+)"), "$1:<ms>"},
      {std::regex(R"(("uptime_seconds"|"snapshot_age_seconds"):-?[0-9]+)"),
       "$1:<s>"},
      {std::regex(R"("build":\{[^}]*\})"), R"("build":<build>)"},
      {std::regex(R"("queue_high_water":[0-9]+)"),
       R"("queue_high_water":<n>)"},
      {std::regex(R"(queue hwm [0-9]+, [-0-9.e+]+ ms total \(max [-0-9.e+]+)"),
       "queue hwm <n>, <ms> ms total (max <ms>"},
  };
  for (const auto& [re, to] : rules) text = std::regex_replace(text, re, to);
  return text;
}

/// Keep a CLI section's header and its stats lines: `# service:`,
/// `# net:`, `# cluster:`, stdin serve's `stats` line, and the "stats"
/// object of a batch --json document.
std::string stats_lines(const std::string& section) {
  static const std::regex json_stats(R"("stats":\{[^}]*\})");
  std::istringstream is(section);
  std::string line, kept;
  while (std::getline(is, line)) {
    std::smatch m;
    if (line.rfind("== ", 0) == 0 || line.rfind("# service:", 0) == 0 ||
        line.rfind("# net:", 0) == 0 || line.rfind("# cluster:", 0) == 0 ||
        line.rfind("stats ", 0) == 0)
      kept += line + "\n";
    else if (std::regex_search(line, m, json_stats))
      kept += m.str() + "\n";
  }
  return kept;
}

/// Two distinct encodes, a cached repeat and a bad_request.
std::vector<std::string> stats_script() {
  return {
      R"({"id":1,"path":")" + example("overlap.con") + R"("})",
      R"({"id":2,"path":")" + example("paper_fig1.con") + R"("})",
      R"({"id":3,"path":")" + example("overlap.con") + R"("})",
      R"({"id":4,"path":")" + example("overlap.con") + R"(","restarts":0})",
  };
}

/// The same script as request lines.
std::string stats_script_lines() {
  return example("overlap.con") + "\n" + example("paper_fig1.con") + "\n" +
         example("overlap.con") + "\n" + example("overlap.con") +
         " --restarts 0\n";
}

/// A stream buffer the CLI thread writes while the test thread reads it.
/// With no put area every write goes through the lock.
class SharedOutput : public std::streambuf {
 public:
  std::string text() const {
    std::lock_guard<std::mutex> lock(mu_);
    return text_;
  }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      std::lock_guard<std::mutex> lock(mu_);
      text_ += traits_type::to_char_type(c);
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard<std::mutex> lock(mu_);
    text_.append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::string text_;
};

/// The port of the `<what> host:port` line in `text`, or 0.
uint16_t printed_port(const std::string& text, const std::string& what) {
  std::smatch m;
  const std::regex line("(^|\n)" + what + " [0-9.]+:([0-9]+)\n");
  if (!std::regex_search(text, m, line)) return 0;
  return static_cast<uint16_t>(std::stoi(m[2].str()));
}

/// `picola serve --tcp 0 --admin-port 0 --jobs 2 <flags>` on a thread:
/// the stats script and a `stats` frame over one connection, /statusz,
/// then `shutdown`, and the exit lines the command prints.
std::string serve_tcp_stats(const std::vector<std::string>& flags) {
  std::vector<std::string> args = {"serve", "--tcp",  "0", "--admin-port",
                                    "0",     "--jobs", "2"};
  args.insert(args.end(), flags.begin(), flags.end());
  SharedOutput out_buf;
  std::ostream out(&out_buf);
  std::ostringstream err;
  int rc = -1;
  std::thread serve([&] {
    std::istringstream in;
    rc = cli::run(args, in, out, err);
  });
  uint16_t port = 0, admin = 0;
  for (int i = 0; i < 1000 && admin == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // One read for both: the `admin` line follows the `listening` one.
    const std::string text = out_buf.text();
    port = printed_port(text, "listening");
    admin = printed_port(text, "admin");
  }
  std::string title;
  for (const std::string& a : args) title += (title.empty() ? "" : " ") + a;
  std::ostringstream os;
  os << "== " << title << "\n";
  Client c;
  std::string error;
  EXPECT_NE(admin, 0) << out_buf.text();
  EXPECT_TRUE(c.connect("127.0.0.1", port, &error)) << error;
  for (const std::string& r : stats_script()) exchange(c, r, os);
  exchange(c, R"({"id":5,"cmd":"stats"})", os);
  auto statusz = http_get(admin, "/statusz");
  os << "-- /statusz\n" << (statusz ? statusz->second : "! no reply") << "\n";
  exchange(c, R"({"id":6,"cmd":"shutdown"})", os);
  serve.join();
  os << "-- exit " << rc << "\n"
     << stats_lines(out_buf.text()) << "-- stderr\n"
     << err.str();
  return os.str();
}

std::string stats_views_transcript() {
  std::string t = stats_lines(cli_section(
      "serve", {"serve", "--jobs", "2"},
      stats_script_lines() + "stats\nquit\n"));

  std::string list = write_temp(
      "picola_stats_views.list",
      example("overlap.con") + "\n" + example("paper_fig1.con") + "\n" +
          example("microcode.con") + "\nno/such/file.con\n");
  t += stats_lines(cli_section("batch --cache 1",
                               {"batch", list, "--jobs", "2", "--cache", "1"},
                               ""));
  t += stats_lines(cli_section("batch --json",
                               {"batch", list, "--jobs", "2", "--json"}, ""));

  Server a(server_options());
  Server b(server_options());
  a.start();
  b.start();
  const std::string members = "127.0.0.1:" + std::to_string(a.port()) +
                              ",127.0.0.1:" + std::to_string(b.port());
  t += stats_lines(cli_section("client --cluster",
                               {"client", "--cluster", members},
                               stats_script_lines()));
  a.stop();
  b.stop();

  // Without a cache dir, then a cold and a warm run on one.
  const std::string dir = ::testing::TempDir() + "picola_stats_views_cache";
  std::filesystem::remove_all(dir);
  t += serve_tcp_stats({});
  t += serve_tcp_stats({"--cache-dir", dir});
  t += serve_tcp_stats({"--cache-dir", dir});
  std::filesystem::remove_all(dir);
  return t;
}

/// Compare `actual` with data/<name>; on a mismatch write it to the temp
/// dir for review.
void expect_pinned(const std::string& actual, const std::string& name) {
  const std::string expected_path =
      std::string(PICOLA_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(expected_path);
  std::stringstream expected;
  if (in) expected << in.rdbuf();
  if (!in || actual != expected.str()) {
    const std::string out_path = ::testing::TempDir() + name + ".actual";
    std::ofstream(out_path) << actual;
    FAIL() << name << " differs from " << expected_path
           << "; actual written to " << out_path;
  }
}

TEST(Transcript, FrontEndsAndReplyFramesMatchThePinnedBytes) {
  expect_pinned(mask(stdin_serve_transcript() + batch_transcript() +
                     client_transcript() + cluster_transcript() +
                     frame_transcript() + option_error_transcript()),
                "transcript.txt");
}

TEST(Transcript, StatsViewsMatchThePinnedBytes) {
  expect_pinned(mask_stats(stats_views_transcript()), "stats_views.txt");
}

}  // namespace
}  // namespace picola::net
