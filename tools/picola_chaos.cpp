// picola_chaos — seeded chaos harness for the TCP encoding service.
//
// Each schedule derives a bounded fault plan from one 64-bit seed
// (fault::FaultPlan::random), installs it process-wide, and drives a
// loopback server (net/server.h) through a fixed workload with the
// resilient client (net/client.h call_with_retry).  Because every
// injected fault is counter-based with a small fires cap, trouble is
// finite and a retrying client must converge; the harness asserts:
//
//   1. every request eventually gets exactly one successful reply
//      (client transport retries + a bounded harness-level retry for
//      injected server-side encode failures),
//   2. replies are bit-identical to a fault-free baseline run
//      (`enc` fingerprint and `cubes` per request),
//   3. pipelined requests come back exactly once, in order, ids intact,
//   4. no schedule outlives its wall cap (hang detector; individual
//      operations are already bounded by client timeouts),
//   5. the injection schedule itself is a pure function of the seed
//      (FaultPlan::schedule_fingerprint agrees across re-derivations,
//      and --repeat verifies a full rerun's outcomes byte for byte).
//
// A failing seed is printed with a one-command repro:
//     picola_chaos --seed <S> --repeat
//
// --restart switches to the persistence chaos mode (ISSUE 9): each seed
// forks this binary as a real server process with a durable cache dir
// and a persist-layer fault plan (FaultPlan::random_persist — short
// writes, ENOSPC, fsync failures, and kCrash points that _exit(137)
// mid-append or mid-snapshot), drives traffic into it, kill -9s
// whatever is left, then asserts the crash-consistency contract:
//
//   6. the surviving directory always loads (a standalone CacheStore
//      recovery must not throw, whatever instant the process died),
//   7. a warm restart against the same dir answers exactly the
//      recovered entries from cache ("cached":1 per reply) and every
//      reply is bit-identical to the fault-free baseline,
//   8. after a graceful shutdown of the warm server, a reload finds
//      every unique workload job durable.
//
// --cluster switches to the multi-node failover mode (ISSUE 10): each
// seed spawns THREE real server processes on fixed ports, wired to each
// other for peer cache forwarding (--peers/--self), and drives three
// passes of the workload through the cluster-aware client
// (net/cluster.h) while a seed-derived schedule takes one node down
// mid-batch — kill -9 or graceful SIGTERM drain — and rolls it back in
// on the SAME ports with the SAME durable cache dir.  Some seeds also
// install a bounded service fault plan inside the victim, and a third
// of the seeds run with hedged re-dispatch on.  The harness asserts:
//
//    9. every request gets exactly one reply with its own id — across
//       failover re-routes, hedge legs, and the restart (the router's
//       id verification plus a harness-side answered-id set),
//   10. every reply is bit-identical to the single-node fault-free
//       baseline, wherever it was computed or forwarded from,
//   11. the restarted node re-enters rotation (the schedule keeps
//       routing keys owned by the victim after the restart),
//   12. no schedule outlives its wall cap.
//
// --report out.json (any mode) writes a machine-readable summary —
// seeds run, faults fired, mode-specific counters, and every violation
// — for CI artifact upload.
//
// Usage:
//   picola_chaos [--seeds N] [--seed-base B]   sweep N seeds (default 200)
//   picola_chaos --seed S [--repeat]           one schedule, optionally twice
//   picola_chaos --restart [--seeds N]         persistence crash/restart sweep
//   picola_chaos --cluster [--seeds N]         multi-node failover sweep
//   picola_chaos --report out.json             write a JSON run report
//   picola_chaos --verbose                     per-schedule plan dumps

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/problem_io.h"
#include "check/instance_gen.h"
#include "constraints/constraint_io.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/cluster.h"
#include "net/json.h"
#include "net/protocol.h"
#include "net/server.h"
#include "persist/io.h"
#include "persist/store.h"
#include "service/job.h"
#include "service/result_cache.h"

namespace {

using picola::fault::FaultPlan;
using picola::net::Client;
using picola::net::ClientOptions;
using picola::net::JsonValue;
using picola::net::Server;
using picola::net::ServerOptions;

struct Options {
  uint64_t seeds = 200;
  uint64_t seed_base = 1;
  std::optional<uint64_t> single_seed;
  bool repeat = false;
  bool restart = false;
  bool cluster = false;
  bool verbose = false;
  std::string report_path;  ///< --report: JSON summary for CI artifacts
};

/// Machine-readable run summary (--report).  One object per invocation:
/// which mode ran, how many seeds, the fault volume, mode-specific
/// counters, and every violation verbatim — enough for CI to archive
/// and for a human to pick the repro command out of.
struct Report {
  std::string mode;
  uint64_t seeds_run = 0;
  uint64_t seed_base = 0;
  uint64_t faults_fired = 0;
  std::map<std::string, int64_t> counters;
  std::vector<std::string> violations;
  double wall_ms = 0;
};

bool write_report(const std::string& path, const Report& rep) {
  JsonValue doc = JsonValue::make_object();
  doc.set("mode", JsonValue::make_string(rep.mode));
  doc.set("seeds_run", JsonValue::make_int(static_cast<int64_t>(rep.seeds_run)));
  doc.set("seed_base",
          JsonValue::make_int(static_cast<int64_t>(rep.seed_base)));
  doc.set("faults_fired",
          JsonValue::make_int(static_cast<int64_t>(rep.faults_fired)));
  doc.set("pass", JsonValue::make_bool(rep.violations.empty()));
  doc.set("wall_ms", JsonValue::make_double(rep.wall_ms));
  JsonValue counters = JsonValue::make_object();
  for (const auto& [name, value] : rep.counters)
    counters.set(name, JsonValue::make_int(value));
  doc.set("counters", counters);
  JsonValue violations = JsonValue::make_array();
  for (const std::string& v : rep.violations)
    violations.push_back(JsonValue::make_string(v));
  doc.set("violations", violations);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string text = doc.dump();
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
            std::fputc('\n', f) != EOF;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

/// One reply we care about comparing: the encoding fingerprint plus the
/// espresso cube count (the whole observable result of an encode).
struct Outcome {
  std::string enc;
  int64_t cubes = 0;
  bool operator==(const Outcome& o) const {
    return enc == o.enc && cubes == o.cubes;
  }
};

struct ScheduleResult {
  std::vector<Outcome> outcomes;  ///< per request, in workload order
  uint64_t schedule_fp = 0;
  std::map<std::string, FaultPlan::PointStats> fault_stats;
  std::vector<std::string> violations;
  double wall_ms = 0;
};

/// The fixed workload: a handful of deterministic instances, two of them
/// requested twice (cache + in-flight-join paths), all inline so the
/// harness needs no files on disk.
std::vector<std::string> make_workload() {
  picola::check::GeneratorOptions g;
  g.min_symbols = 5;
  g.max_symbols = 9;
  g.max_constraints = 5;
  picola::check::InstanceGenerator gen(42, g);
  std::vector<std::string> cons;
  for (int i = 0; i < 5; ++i)
    cons.push_back(picola::write_constraints(gen.next().set));
  cons.push_back(cons[0]);  // repeat -> cache hit or inflight join
  cons.push_back(cons[1]);
  return cons;
}

JsonValue encode_request(const std::string& con, int64_t id,
                         int restarts = 2) {
  picola::net::EncodeRequest r;
  r.id = JsonValue::make_int(id);
  r.con = con;
  r.restarts = restarts;
  return r.to_json();
}

int64_t int_field(const JsonValue& v, const char* key, int64_t dflt = -1) {
  const JsonValue* f = v.find(key);
  return f && f->is_number() ? f->as_int() : dflt;
}

std::string str_field(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  return f && f->is_string() ? f->as_string() : "";
}

ServerOptions server_options() {
  ServerOptions o;
  o.service.num_threads = 2;
  o.service.cache_capacity = 32;
  o.max_inflight = 8;
  o.retry_after_ms = 2;
  return o;
}

ClientOptions client_options(uint64_t seed) {
  ClientOptions c;
  c.connect_timeout_ms = 2000;
  c.io_timeout_ms = 2000;
  c.max_retries = 12;
  c.backoff_base_ms = 1;
  c.backoff_max_ms = 16;
  c.jitter_seed = seed;
  c.breaker_threshold = 4;
  c.breaker_open_ms = 20;
  return c;
}

/// One request to a definitive successful outcome, or a violation.
/// call_with_retry absorbs transport faults; this layer absorbs the
/// bounded injected *server-side* failures (a restart task or allocation
/// made to throw answers `error: encode_failed` — a valid reply, so the
/// client rightly does not retry it).
std::optional<Outcome> run_request(Client& c, const std::string& con,
                                   int64_t id, std::string* why,
                                   bool* cached = nullptr) {
  std::string error;
  for (int attempt = 0; attempt < 10; ++attempt) {
    auto reply = c.call_with_retry(encode_request(con, id), &error);
    if (!reply) continue;  // transport budget spent; next harness attempt
    if (reply->find("error")) continue;  // injected server-side failure
    if (int_field(*reply, "id") != id) {
      *why = "reply id mismatch: want " + std::to_string(id) + " got " +
             std::to_string(int_field(*reply, "id"));
      return std::nullopt;
    }
    Outcome o;
    o.enc = str_field(*reply, "enc");
    o.cubes = int_field(*reply, "cubes");
    if (o.enc.empty()) {
      *why = "reply missing enc fingerprint";
      return std::nullopt;
    }
    if (cached) *cached = int_field(*reply, "cached", 0) == 1;
    return o;
  }
  *why = "request " + std::to_string(id) +
         " failed permanently (last: " + error + ")";
  return std::nullopt;
}

/// Pipelined phase: several requests written back to back, replies
/// collected afterwards.  Replies arrive in completion order and
/// correlate by id — the invariant is exactly one reply per id, each
/// matching the baseline.  A transport fault mid-pipeline kills the
/// connection; the whole batch is idempotent, so the harness reconnects
/// and replays it.
bool run_pipeline(Client& c, uint16_t port,
                  const std::vector<std::string>& cons,
                  const std::vector<Outcome>& want, std::string* why) {
  const int64_t kBase = 1000;
  // A plan tops out at 6 rules x 6 fires = 36 injected kills; each kills
  // at most one batch attempt, so this budget guarantees convergence.
  for (int attempt = 0; attempt < 48; ++attempt) {
    if (!c.connected()) {
      std::string cerr2;
      for (int r = 0; r < 10 && !c.connected(); ++r)
        c.connect("127.0.0.1", port, &cerr2);
      if (!c.connected()) continue;
    }
    bool restart = false;
    std::string error;
    for (size_t i = 0; i < cons.size() && !restart; ++i)
      if (!c.send(encode_request(cons[i], kBase + static_cast<int64_t>(i))
                      .dump(),
                  &error))
        restart = true;
    std::map<int64_t, Outcome> got;
    for (size_t i = 0; i < cons.size() && !restart; ++i) {
      auto payload = c.recv(&error);
      if (!payload) {
        restart = true;
        break;
      }
      auto reply = JsonValue::parse(*payload);
      if (!reply) {
        *why = "pipeline: unparsable reply";
        return false;
      }
      int64_t id = int_field(*reply, "id");
      if (id < kBase || id >= kBase + static_cast<int64_t>(cons.size())) {
        *why = "pipeline: reply with unknown id " + std::to_string(id);
        return false;
      }
      if (reply->find("error")) {
        restart = true;  // bounded injected failure: replay the batch
        break;
      }
      if (got.count(id)) {
        *why = "pipeline: duplicate reply for id " + std::to_string(id);
        return false;
      }
      got[id] = Outcome{str_field(*reply, "enc"), int_field(*reply, "cubes")};
    }
    if (!restart) {
      // Every id answered exactly once (map + count check above), and
      // every answer bit-identical to the fault-free baseline.
      for (size_t i = 0; i < cons.size(); ++i) {
        auto it = got.find(kBase + static_cast<int64_t>(i));
        if (it == got.end()) {
          *why = "pipeline: no reply for slot " + std::to_string(i);
          return false;
        }
        if (!(it->second == want[i])) {
          *why = "pipeline: reply differs from baseline at slot " +
                 std::to_string(i);
          return false;
        }
      }
      return true;
    }
    c.close();  // drop any half-read frame; reconnect next attempt
  }
  *why = "pipeline: batch never completed";
  return false;
}

ScheduleResult run_schedule(const std::vector<std::string>& workload,
                            const std::vector<Outcome>* baseline,
                            std::optional<FaultPlan> plan, bool verbose) {
  ScheduleResult res;
  auto t0 = std::chrono::steady_clock::now();

  Server server(server_options());
  server.start();
  uint16_t port = server.port();

  uint64_t seed = plan ? plan->seed() : 0;
  if (plan) {
    res.schedule_fp = plan->schedule_fingerprint();
    if (verbose) std::fprintf(stderr, "%s\n", plan->describe().c_str());
    picola::fault::install(std::make_shared<FaultPlan>(std::move(*plan)));
  }

  Client client(client_options(seed));
  std::string error;
  bool up = false;
  for (int i = 0; i < 48 && !up; ++i)
    up = client.connect("127.0.0.1", port, &error);
  if (!up) {
    res.violations.push_back("could not connect: " + error);
  } else {
    for (size_t i = 0; i < workload.size(); ++i) {
      std::string why;
      auto o = run_request(client, workload[i], static_cast<int64_t>(i),
                           &why);
      if (!o) {
        res.violations.push_back(why);
        break;
      }
      if (baseline && !((*baseline)[i] == *o))
        res.violations.push_back("request " + std::to_string(i) +
                                 " differs from fault-free baseline");
      res.outcomes.push_back(std::move(*o));
    }
    if (res.violations.empty() && baseline) {
      std::string why;
      // Reconnect for the pipelined phase so it starts clean.
      for (int i = 0; i < 48; ++i)
        if (client.connect("127.0.0.1", port, &error)) break;
      if (!run_pipeline(client, port, workload, *baseline, &why))
        res.violations.push_back(why);
    }
  }

  if (plan) {
    auto installed = picola::fault::current();
    if (installed) res.fault_stats = installed->stats();
    picola::fault::install(nullptr);
  }
  server.stop();  // graceful drain: must answer admitted work and exit

  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (res.wall_ms > 30'000)
    res.violations.push_back("schedule exceeded 30s wall cap (hang?)");
  return res;
}

// ---------------------------------------------------------------------------
// --restart mode: real-process crash/recovery schedules (ISSUE 9).
//
// The faulted server must be a separate *process* — kCrash faults
// _exit(137) at the injection site, and the whole point is that the
// page cache (not the process) carries un-fsynced journal bytes across
// the death.  The harness re-execs itself via a hidden --child-serve
// mode; the child prints "port <p>" on stdout once it is listening.

std::atomic<Server*> g_child_server{nullptr};

extern "C" void picola_chaos_child_sigterm(int) {
  Server* s = g_child_server.load(std::memory_order_relaxed);
  if (s) s->request_shutdown();
}

/// Child entry: serve on an ephemeral port with the durable cache in
/// `dir`, snapshotting after every insert (interval 0) so crash points
/// land mid-snapshot as often as mid-append.  A non-zero fault seed
/// installs the persist-layer plan before the server (and therefore the
/// recovery load) comes up.  SIGTERM drains gracefully, which writes
/// the shutdown snapshot; SIGKILL is the crash under test.
int run_child_serve(const std::string& dir, uint64_t fault_seed) {
  ServerOptions o = server_options();
  o.service.cache_dir = dir;
  o.service.snapshot_interval_s = 0;
  if (fault_seed)
    picola::fault::install(
        std::make_shared<FaultPlan>(FaultPlan::random_persist(fault_seed)));
  std::unique_ptr<Server> server;
  try {
    server = std::make_unique<Server>(o);
  } catch (const std::exception& e) {
    std::printf("fail %s\n", e.what());
    std::fflush(stdout);
    return 3;
  }
  g_child_server.store(server.get(), std::memory_order_relaxed);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = picola_chaos_child_sigterm;
  sigaction(SIGTERM, &sa, nullptr);
  std::printf("port %u\n", static_cast<unsigned>(server->port()));
  std::fflush(stdout);
  server->run();
  g_child_server.store(nullptr, std::memory_order_relaxed);
  return 0;
}

struct ChildProc {
  pid_t pid = -1;
  int out = -1;  ///< read end of the child's stdout pipe
};

ChildProc spawn_child(const char* exe, const std::string& dir,
                      uint64_t fault_seed) {
  int fds[2];
  if (pipe(fds) != 0) return {};
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    dup2(fds[1], 1);
    close(fds[0]);
    close(fds[1]);
    std::string seed_str = std::to_string(fault_seed);
    execl(exe, exe, "--child-serve", dir.c_str(), seed_str.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  ChildProc c;
  c.pid = pid;
  c.out = fds[0];
  return c;
}

/// First line of the child's stdout: "port <p>" on success, "fail ..."
/// (or EOF, if it crashed before printing) otherwise.
bool read_port_line(int fd, uint16_t* port) {
  std::string line;
  while (line.size() < 256) {
    char ch;
    ssize_t n = read(fd, &ch, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (ch == '\n') break;
    line.push_back(ch);
  }
  if (line.rfind("port ", 0) != 0) return false;
  unsigned long p = std::strtoul(line.c_str() + 5, nullptr, 10);
  *port = static_cast<uint16_t>(p);
  return p != 0 && p < 65536;
}

/// Reap `pid`, escalating to SIGKILL if it outlives `timeout_ms`.
int await_child(pid_t pid, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) return status;
    usleep(10'000);
  }
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

/// The parent-side recovery probe: a standalone CacheStore load of the
/// directory a dead server left behind.  load() is write-side-effect
/// free (the journal opens lazily, on the first append), so this does
/// not perturb the dir a subsequent warm server will recover from.
/// Returns false — the core crash-consistency violation — when the load
/// throws.
bool verify_load(const std::string& dir, size_t* entries, std::string* why) {
  try {
    picola::persist::StoreOptions so;
    so.dir = dir;
    so.snapshot_interval_s = -1;
    picola::persist::CacheStore store(so);
    picola::ResultCache cache(32, 8);
    store.load(&cache);
    *entries = cache.size();
    return true;
  } catch (const std::exception& e) {
    *why = e.what();
    return false;
  }
}

void remove_tree(const std::string& dir) {
  for (const std::string& name : picola::persist::io::list_dir(dir))
    picola::persist::io::unlink_file(dir + "/" + name, nullptr);
  rmdir(dir.c_str());
}

struct RestartResult {
  size_t recovered = 0;      ///< entries readable right after the kill
  size_t warm_hits = 0;      ///< warm replies served from the recovered cache
  size_t final_entries = 0;  ///< after graceful shutdown + reload
  std::vector<std::string> violations;
  double wall_ms = 0;
};

RestartResult run_restart_schedule(const char* exe,
                                   const std::vector<std::string>& workload,
                                   const std::vector<Outcome>& baseline,
                                   uint64_t seed) {
  RestartResult res;
  auto t0 = std::chrono::steady_clock::now();
  char tmpl[] = "/tmp/picola_chaos.XXXXXX";
  if (!mkdtemp(tmpl)) {
    res.violations.push_back("mkdtemp failed");
    return res;
  }
  const std::string dir = tmpl;

  // Phase 1: the faulted server.  Drive the workload without caring
  // whether requests succeed — a kCrash fault may take the process down
  // at any injected point; if the plan held no crash, the SIGKILL below
  // is the mid-flight kill.  Recovery on an empty dir touches no fault
  // points (the journal opens lazily), so startup itself must work.
  ChildProc c1 = spawn_child(exe, dir, seed);
  if (c1.pid < 0) {
    res.violations.push_back("fork/exec failed");
    remove_tree(dir);
    return res;
  }
  uint16_t port = 0;
  bool c1_dead = false;
  if (!read_port_line(c1.out, &port)) {
    res.violations.push_back("faulted child failed to start");
  } else {
    Client client(client_options(seed));
    std::string error;
    for (int i = 0; i < 20 && !client.connected(); ++i)
      client.connect("127.0.0.1", port, &error);
    for (size_t i = 0; i < workload.size() && !c1_dead; ++i) {
      if (waitpid(c1.pid, nullptr, WNOHANG) == c1.pid) {
        c1_dead = true;  // crash fault fired; already reaped
        break;
      }
      // One transport-retrying attempt per request; outcomes don't
      // matter here, only the journal/snapshot traffic they generate.
      (void)client.call_with_retry(
          encode_request(workload[i], static_cast<int64_t>(i)), &error);
    }
  }
  if (!c1_dead) {
    kill(c1.pid, SIGKILL);
    waitpid(c1.pid, nullptr, 0);
  }
  close(c1.out);

  // Phase 2: whatever instant the process died, the dir must load.
  std::string why;
  if (res.violations.empty() &&
      !verify_load(dir, &res.recovered, &why))
    res.violations.push_back("recovered dir failed verification: " + why);

  // Phase 3: warm restart, no faults.  Every reply must be
  // bit-identical to the fault-free baseline, and the first request for
  // each unique job must be a cache hit exactly when recovery brought
  // that entry back — warm hits == recovered entries, no more, no less.
  if (res.violations.empty()) {
    ChildProc c2 = spawn_child(exe, dir, 0);
    uint16_t port2 = 0;
    if (c2.pid < 0 || !read_port_line(c2.out, &port2)) {
      res.violations.push_back("warm restart failed to come up");
      if (c2.pid > 0) {
        kill(c2.pid, SIGKILL);
        waitpid(c2.pid, nullptr, 0);
      }
    } else {
      Client client(client_options(seed ^ 0x5eedULL));
      std::string error;
      bool up = false;
      for (int i = 0; i < 48 && !up; ++i)
        up = client.connect("127.0.0.1", port2, &error);
      if (!up) res.violations.push_back("warm connect failed: " + error);
      std::set<std::string> seen;
      for (size_t i = 0; res.violations.empty() && i < workload.size();
           ++i) {
        bool cached = false;
        auto o = run_request(client, workload[i],
                             static_cast<int64_t>(i), &why, &cached);
        if (!o) {
          res.violations.push_back("warm " + why);
          break;
        }
        if (!(*o == baseline[i])) {
          res.violations.push_back(
              "warm reply " + std::to_string(i) +
              " differs from fault-free baseline");
          break;
        }
        if (seen.insert(workload[i]).second && cached) ++res.warm_hits;
      }
      if (res.violations.empty() && res.warm_hits != res.recovered)
        res.violations.push_back(
            "warm hit count " + std::to_string(res.warm_hits) +
            " != recovered entries " + std::to_string(res.recovered));

      // Phase 4: graceful shutdown writes the final snapshot; a reload
      // must now find every unique workload job durable.
      kill(c2.pid, SIGTERM);
      int status = await_child(c2.pid, 20'000);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        res.violations.push_back("warm server did not shut down cleanly");
      else if (!verify_load(dir, &res.final_entries, &why))
        res.violations.push_back("post-shutdown dir failed verification: " +
                                 why);
      else if (res.final_entries != seen.size())
        res.violations.push_back(
            "post-shutdown reload found " +
            std::to_string(res.final_entries) + " entries, want " +
            std::to_string(seen.size()));
    }
    if (c2.out >= 0) close(c2.out);
  }

  remove_tree(dir);
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (res.wall_ms > 30'000)
    res.violations.push_back("restart schedule exceeded 30s wall cap");
  return res;
}

/// The --restart sweep; mirrors main()'s classic sweep.
int run_restart_sweep(const Options& opt,
                      const std::vector<std::string>& workload,
                      const std::vector<Outcome>& baseline,
                      const std::vector<uint64_t>& seeds, Report* rep) {
  char exe[4096];
  ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return 2;
  }
  exe[n] = '\0';

  uint64_t total_recovered = 0;
  uint64_t total_warm = 0;
  for (uint64_t seed : seeds) {
    uint64_t fp1 = FaultPlan::random_persist(seed).schedule_fingerprint();
    uint64_t fp2 = FaultPlan::random_persist(seed).schedule_fingerprint();
    if (fp1 != fp2) {
      rep->violations.push_back("seed " + std::to_string(seed) +
                                ": persist schedule not reproducible");
      std::fprintf(stderr,
                   "FAIL seed %llu: persist schedule not reproducible\n",
                   static_cast<unsigned long long>(seed));
      return 1;
    }
    RestartResult r = run_restart_schedule(exe, workload, baseline, seed);
    total_recovered += r.recovered;
    total_warm += r.warm_hits;
    ++rep->seeds_run;
    rep->counters["entries_recovered"] = static_cast<int64_t>(total_recovered);
    rep->counters["warm_hits"] = static_cast<int64_t>(total_warm);
    if (!r.violations.empty()) {
      rep->violations.push_back("seed " + std::to_string(seed) + ": " +
                                r.violations[0]);
      std::fprintf(
          stderr,
          "FAIL seed %llu: %s\n  repro: picola_chaos --restart --seed %llu\n",
          static_cast<unsigned long long>(seed), r.violations[0].c_str(),
          static_cast<unsigned long long>(seed));
      return 1;
    }
    if (opt.verbose || opt.single_seed)
      std::fprintf(stderr,
                   "seed %llu ok: recovered %zu, warm hits %zu, final %zu "
                   "(%.0f ms)\n",
                   static_cast<unsigned long long>(seed), r.recovered,
                   r.warm_hits, r.final_entries, r.wall_ms);
  }

  // A sweep that never recovers anything warm proves nothing — require
  // the warm-hit rate over the whole sweep to be > 0.
  if (seeds.size() > 1 && total_warm == 0) {
    rep->violations.push_back(
        "restart sweep never observed a warm cache hit");
    std::fprintf(stderr,
                 "FAIL: restart sweep never observed a warm cache hit\n");
    return 1;
  }
  std::fprintf(stderr,
               "PASS %zu restart schedule(s), %llu entries recovered, "
               "%llu warm hits, 0 violations\n",
               seeds.size(),
               static_cast<unsigned long long>(total_recovered),
               static_cast<unsigned long long>(total_warm));
  return 0;
}

// ---------------------------------------------------------------------------
// --cluster mode: multi-node failover schedules (ISSUE 10).

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// An ephemeral port reserved for a child that will bind it shortly.
uint16_t free_port() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  socklen_t len = sizeof addr;
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  close(fd);
  return ntohs(addr.sin_port);
}

/// Child entry for one cluster node: fixed main + admin ports (so a
/// restart rejoins on the same member identity), a durable cache dir
/// (snapshot interval 0 — the warm restart must find its work), and the
/// full member list for peer cache forwarding.
int run_child_node(const std::string& dir, int port, int admin_port,
                   const std::string& peers, const std::string& self,
                   uint64_t fault_seed) {
  ServerOptions o = server_options();
  o.service.cache_dir = dir;
  o.service.snapshot_interval_s = 0;
  o.port = static_cast<uint16_t>(port);
  o.admin_port = admin_port;
  std::string perr;
  o.peers = picola::net::parse_member_list(peers, &perr);
  o.self = self;
  o.peer_timeout_ms = 100;  // peeks at a dead peer must not stall requests
  if (fault_seed)
    picola::fault::install(
        std::make_shared<FaultPlan>(FaultPlan::random(fault_seed)));
  std::unique_ptr<Server> server;
  try {
    server = std::make_unique<Server>(o);
  } catch (const std::exception& e) {
    std::printf("fail %s\n", e.what());
    std::fflush(stdout);
    return 3;
  }
  g_child_server.store(server.get(), std::memory_order_relaxed);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = picola_chaos_child_sigterm;
  sigaction(SIGTERM, &sa, nullptr);
  std::printf("port %u\n", static_cast<unsigned>(server->port()));
  std::fflush(stdout);
  server->run();
  g_child_server.store(nullptr, std::memory_order_relaxed);
  return 0;
}

struct ClusterNode {
  std::string dir;
  uint16_t port = 0;
  uint16_t admin_port = 0;
  ChildProc proc;

  std::string self() const {
    return "127.0.0.1:" + std::to_string(port);
  }
};

ChildProc spawn_node(const char* exe, const ClusterNode& node,
                     const std::string& peers, uint64_t fault_seed) {
  int fds[2];
  if (pipe(fds) != 0) return {};
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    dup2(fds[1], 1);
    close(fds[0]);
    close(fds[1]);
    std::string port_str = std::to_string(node.port);
    std::string admin_str = std::to_string(node.admin_port);
    std::string self = node.self();
    std::string seed_str = std::to_string(fault_seed);
    execl(exe, exe, "--child-node", node.dir.c_str(), port_str.c_str(),
          admin_str.c_str(), peers.c_str(), self.c_str(), seed_str.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  ChildProc c;
  c.pid = pid;
  c.out = fds[0];
  return c;
}

void reap_node(ClusterNode* node) {
  if (node->proc.pid > 0) {
    kill(node->proc.pid, SIGKILL);
    waitpid(node->proc.pid, nullptr, 0);
    node->proc.pid = -1;
  }
  if (node->proc.out >= 0) {
    close(node->proc.out);
    node->proc.out = -1;
  }
}

struct ClusterResult {
  std::vector<std::string> violations;
  uint64_t kills = 0;
  uint64_t restarts = 0;
  uint64_t child_faults = 0;  ///< schedules that faulted the victim's service
  picola::net::ClusterClient::Stats stats;
  double wall_ms = 0;
};

ClusterResult run_cluster_schedule(const char* exe,
                                   const std::vector<std::string>& workload,
                                   const std::vector<uint64_t>& keys,
                                   const std::vector<Outcome>& baseline,
                                   uint64_t seed, bool verbose) {
  ClusterResult res;
  auto t0 = std::chrono::steady_clock::now();
  constexpr int kNodes = 3;

  std::vector<ClusterNode> nodes(kNodes);
  std::string peers;
  auto cleanup = [&] {
    for (ClusterNode& n : nodes) {
      reap_node(&n);
      if (!n.dir.empty()) remove_tree(n.dir);
    }
  };
  for (int i = 0; i < kNodes; ++i) {
    char tmpl[] = "/tmp/picola_cluster.XXXXXX";
    if (!mkdtemp(tmpl)) {
      res.violations.push_back("mkdtemp failed");
      cleanup();
      return res;
    }
    nodes[i].dir = tmpl;
    nodes[i].port = free_port();
    nodes[i].admin_port = free_port();
    if (i) peers += ",";
    peers += nodes[i].self() + ":" + std::to_string(nodes[i].admin_port);
  }

  // The seed-derived chaos schedule: which node dies, when, how (kill -9
  // or graceful SIGTERM drain), when it rolls back in, and whether its
  // service additionally runs a bounded fault plan.
  const uint64_t h = splitmix64(seed);
  const int victim = static_cast<int>(h % kNodes);
  const bool victim_faulted = (h >> 4) % 2 == 0;
  const bool graceful = (h >> 12) % 3 == 0;
  // Four passes; the kill lands after one full warm pass (so every lane
  // that owns a key has a live connection — drains are observed on warm
  // lanes), and the restart leaves a tail that re-admits the victim.
  const size_t total = workload.size() * 4;
  const size_t kill_at =
      workload.size() + 1 + ((h >> 16) % workload.size());
  const size_t restart_at = kill_at + 2 + ((h >> 24) % 4);

  for (int i = 0; i < kNodes; ++i) {
    const uint64_t fs = (i == victim && victim_faulted) ? seed : 0;
    if (fs) ++res.child_faults;
    nodes[i].proc = spawn_node(exe, nodes[i], peers, fs);
    uint16_t p = 0;
    if (nodes[i].proc.pid < 0 || !read_port_line(nodes[i].proc.out, &p)) {
      res.violations.push_back("node " + std::to_string(i) +
                               " failed to start");
      cleanup();
      return res;
    }
  }

  picola::net::ClusterOptions co;
  std::string perr;
  co.members = picola::net::parse_member_list(peers, &perr);
  co.client.connect_timeout_ms = 500;
  co.client.io_timeout_ms = 8000;
  co.breaker.threshold = 2;
  co.breaker.open_ms = 50;
  co.health_recheck_ms = 25;
  co.backoff_base_ms = 1;
  co.backoff_max_ms = 20;
  co.seed = seed;
  // A third of the seeds hedge aggressively: 1ms is under a cold encode,
  // so hedge legs genuinely race and lose-legs get suppressed.
  co.hedge_ms = (h >> 8) % 3 == 0 ? 1 : 0;
  picola::net::ClusterClient cluster(co);

  // While the victim is down or draining, steer its own keys at it —
  // that is the traffic that exercises drain observation and failover
  // (a key owned by a healthy node never reaches the victim's lane).
  std::vector<size_t> victim_keys;
  for (size_t i = 0; i < keys.size(); ++i)
    if (cluster.owner_of(keys[i]) == victim) victim_keys.push_back(i);

  if (verbose)
    std::fprintf(stderr,
                 "seed %llu: victim=%d faulted=%d graceful=%d kill@%zu "
                 "restart@%zu hedge=%dms\n",
                 static_cast<unsigned long long>(seed), victim,
                 victim_faulted ? 1 : 0, graceful ? 1 : 0, kill_at,
                 restart_at, co.hedge_ms);

  // A graceful victim drains; shutting_down replies on the router's
  // warm lanes are how the drain gets observed.  With no in-flight work
  // the drain window is microseconds, so park one slow unique job on
  // the victim right before the SIGTERM to hold the window open.
  picola::check::GeneratorOptions pg;
  pg.min_symbols = 16;
  pg.max_symbols = 20;
  pg.max_constraints = 5;
  picola::check::InstanceGenerator pgen(splitmix64(seed ^ 0xdeadULL), pg);
  const std::string parking_con =
      picola::write_constraints(pgen.next().set);
  Client occupier(client_options(seed));
  bool parked = false;

  std::set<int64_t> answered;
  for (size_t n = 0; n < total && res.violations.empty(); ++n) {
    if (n == kill_at) {
      if (graceful) {
        std::string oerr;
        if (occupier.connect("127.0.0.1", nodes[victim].port, &oerr)) {
          parked = occupier.send(encode_request(parking_con, 1, 48).dump(),
                                 &oerr);
        }
        usleep(2'000);  // let the parked job be admitted
        kill(nodes[victim].proc.pid, SIGTERM);
        // NOT reaped yet: the workload keeps flowing into the drain
        // window; the victim is collected at the restart point.
      } else {
        kill(nodes[victim].proc.pid, SIGKILL);
        waitpid(nodes[victim].proc.pid, nullptr, 0);
        nodes[victim].proc.pid = -1;
        close(nodes[victim].proc.out);
        nodes[victim].proc.out = -1;
      }
      ++res.kills;
    }
    if (n == restart_at && res.violations.empty()) {
      if (nodes[victim].proc.pid > 0) {  // graceful: collect the drain
        if (parked) (void)occupier.recv(nullptr);  // admitted work answered
        occupier.close();
        int status = await_child(nodes[victim].proc.pid, 20'000);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
          res.violations.push_back("victim did not drain cleanly");
        nodes[victim].proc.pid = -1;
        close(nodes[victim].proc.out);
        nodes[victim].proc.out = -1;
        if (!res.violations.empty()) break;
      }
      // Rolling restart: same ports, same cache dir, no faults — the
      // node warm-loads what it persisted and re-enters rotation.
      nodes[victim].proc = spawn_node(exe, nodes[victim], peers, 0);
      uint16_t p = 0;
      if (nodes[victim].proc.pid < 0 ||
          !read_port_line(nodes[victim].proc.out, &p)) {
        res.violations.push_back("victim failed to restart");
        break;
      }
      ++res.restarts;
      // Let the breaker's open window and the draining health recheck
      // lapse so the rest of the schedule can actually re-admit it.
      usleep(60'000);
    }

    size_t i = n % workload.size();
    if (n > kill_at && n < restart_at + 2 && !victim_keys.empty())
      i = victim_keys[n % victim_keys.size()];
    const int64_t id = 2000 + static_cast<int64_t>(n);
    const JsonValue req = encode_request(workload[i], id);
    bool done = false;
    std::string last_err = "no attempt made";
    // The router absorbs transport faults, drains, and overload sheds;
    // this layer absorbs (a) windows where the victim is down and its
    // breaker not yet open, and (b) bounded injected encode failures,
    // which reach us as terminal error replies.
    for (int attempt = 0; attempt < 12 && !done; ++attempt) {
      std::string error;
      auto reply = cluster.call(req, keys[i], &error);
      if (!reply) {
        last_err = error;
        usleep(5'000);
        continue;
      }
      if (reply->find("error")) {
        last_err = str_field(*reply, "error");
        continue;
      }
      if (int_field(*reply, "id") != id) {
        res.violations.push_back(
            "request " + std::to_string(n) + ": reply id " +
            std::to_string(int_field(*reply, "id")) + ", want " +
            std::to_string(id));
        break;
      }
      if (!answered.insert(id).second) {
        res.violations.push_back("request " + std::to_string(n) +
                                 ": answered twice");
        break;
      }
      Outcome o{str_field(*reply, "enc"), int_field(*reply, "cubes")};
      if (!(o == baseline[i])) {
        res.violations.push_back(
            "request " + std::to_string(n) +
            " differs from single-node fault-free baseline");
        break;
      }
      done = true;
    }
    if (!done && res.violations.empty())
      res.violations.push_back("request " + std::to_string(n) +
                               " never answered (last: " + last_err + ")");
  }

  if (res.violations.empty() && answered.size() != total)
    res.violations.push_back(
        "answered " + std::to_string(answered.size()) + " of " +
        std::to_string(total) + " requests");
  res.stats = cluster.stats();
  if (res.violations.empty() && res.stats.id_mismatches != 0)
    res.violations.push_back(
        "exactly-one-reply violated: " +
        std::to_string(res.stats.id_mismatches) + " id mismatches");

  cleanup();
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (res.wall_ms > 60'000)
    res.violations.push_back("cluster schedule exceeded 60s wall cap");
  return res;
}

/// The --cluster sweep; fills `rep` for --report.
int run_cluster_sweep(const Options& opt,
                      const std::vector<std::string>& workload,
                      const std::vector<Outcome>& baseline,
                      const std::vector<uint64_t>& seeds, Report* rep) {
  char exe[4096];
  ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return 2;
  }
  exe[n] = '\0';

  // Routing keys are a pure function of the constraint content — the
  // same function servers use to pick peek targets (service/job.h).
  std::vector<uint64_t> keys;
  for (const std::string& con : workload) {
    std::string error;
    auto problem = picola::parse_problem_text(con, &error);
    if (!problem) {
      std::fprintf(stderr, "workload con unparsable: %s\n", error.c_str());
      return 2;
    }
    keys.push_back(picola::route_key(problem->set));
  }

  uint64_t reroutes = 0, hedges = 0, duplicates = 0, drains = 0,
           rejoins = 0, kills = 0, restarts = 0, child_faults = 0;
  for (uint64_t seed : seeds) {
    ClusterResult r = run_cluster_schedule(exe, workload, keys, baseline,
                                           seed, opt.verbose);
    reroutes += r.stats.reroutes;
    hedges += r.stats.hedges;
    duplicates += r.stats.duplicates_suppressed;
    drains += r.stats.drains_observed;
    rejoins += r.stats.rejoins;
    kills += r.kills;
    restarts += r.restarts;
    child_faults += r.child_faults;
    ++rep->seeds_run;
    if (!r.violations.empty()) {
      rep->violations.push_back(
          "seed " + std::to_string(seed) + ": " + r.violations[0]);
      std::fprintf(
          stderr,
          "FAIL seed %llu: %s\n  repro: picola_chaos --cluster --seed %llu\n",
          static_cast<unsigned long long>(seed), r.violations[0].c_str(),
          static_cast<unsigned long long>(seed));
      break;
    }
    if (opt.verbose || opt.single_seed)
      std::fprintf(stderr,
                   "seed %llu ok: %.0f ms, reroutes=%llu hedges=%llu "
                   "dups=%llu drains=%llu rejoins=%llu\n",
                   static_cast<unsigned long long>(seed), r.wall_ms,
                   static_cast<unsigned long long>(r.stats.reroutes),
                   static_cast<unsigned long long>(r.stats.hedges),
                   static_cast<unsigned long long>(
                       r.stats.duplicates_suppressed),
                   static_cast<unsigned long long>(r.stats.drains_observed),
                   static_cast<unsigned long long>(r.stats.rejoins));
  }

  rep->faults_fired = kills + child_faults;
  rep->counters["kills"] = static_cast<int64_t>(kills);
  rep->counters["restarts"] = static_cast<int64_t>(restarts);
  rep->counters["reroutes"] = static_cast<int64_t>(reroutes);
  rep->counters["hedges"] = static_cast<int64_t>(hedges);
  rep->counters["duplicates_suppressed"] = static_cast<int64_t>(duplicates);
  rep->counters["drains_observed"] = static_cast<int64_t>(drains);
  rep->counters["rejoins"] = static_cast<int64_t>(rejoins);
  if (!rep->violations.empty()) return 1;

  // A sweep where nothing ever re-routed proves nothing about failover.
  if (seeds.size() > 1 && reroutes == 0) {
    rep->violations.push_back("cluster sweep never observed a re-route");
    std::fprintf(stderr, "FAIL: %s\n", rep->violations.back().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "PASS %zu cluster schedule(s): %llu kills, %llu restarts, "
               "%llu reroutes, %llu hedges, %llu dups suppressed, "
               "%llu drains observed, %llu rejoins, 0 violations\n",
               seeds.size(), static_cast<unsigned long long>(kills),
               static_cast<unsigned long long>(restarts),
               static_cast<unsigned long long>(reroutes),
               static_cast<unsigned long long>(hedges),
               static_cast<unsigned long long>(duplicates),
               static_cast<unsigned long long>(drains),
               static_cast<unsigned long long>(rejoins));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden re-exec entry for --restart: serve with a durable cache (and
  // optionally a persist fault plan) until killed.
  if (argc == 4 && std::strcmp(argv[1], "--child-serve") == 0)
    return run_child_serve(argv[2], std::strtoull(argv[3], nullptr, 10));
  // Hidden re-exec entry for --cluster: one node on fixed ports with a
  // durable cache and the full member list.
  if (argc == 8 && std::strcmp(argv[1], "--child-node") == 0)
    return run_child_node(argv[2], std::atoi(argv[3]), std::atoi(argv[4]),
                          argv[5], argv[6],
                          std::strtoull(argv[7], nullptr, 10));

  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--seeds" && next())
      opt.seeds = std::strtoull(argv[i], nullptr, 10);
    else if (a == "--seed-base" && next())
      opt.seed_base = std::strtoull(argv[i], nullptr, 10);
    else if (a == "--seed" && next())
      opt.single_seed = std::strtoull(argv[i], nullptr, 10);
    else if (a == "--repeat")
      opt.repeat = true;
    else if (a == "--restart")
      opt.restart = true;
    else if (a == "--cluster")
      opt.cluster = true;
    else if (a == "--report" && next())
      opt.report_path = argv[i];
    else if (a == "--verbose")
      opt.verbose = true;
    else {
      std::fprintf(stderr,
                   "usage: picola_chaos [--seeds N] [--seed-base B] "
                   "[--seed S] [--repeat] [--restart] [--cluster] "
                   "[--report out.json] [--verbose]\n");
      return 2;
    }
  }
  if (opt.restart && opt.cluster) {
    std::fprintf(stderr, "--restart and --cluster are exclusive\n");
    return 2;
  }

  const std::vector<std::string> workload = make_workload();

  // Fault-free baseline: the ground truth every faulted run must match.
  ScheduleResult base =
      run_schedule(workload, nullptr, std::nullopt, false);
  if (!base.violations.empty()) {
    std::fprintf(stderr, "FAIL baseline (no faults): %s\n",
                 base.violations[0].c_str());
    return 1;
  }
  std::fprintf(stderr, "baseline: %zu requests ok (%.0f ms)\n",
               base.outcomes.size(), base.wall_ms);

  std::vector<uint64_t> seeds;
  if (opt.single_seed) {
    seeds.push_back(*opt.single_seed);
  } else {
    for (uint64_t s = 0; s < opt.seeds; ++s)
      seeds.push_back(opt.seed_base + s);
  }

  Report rep;
  rep.mode = opt.cluster ? "cluster" : opt.restart ? "restart" : "schedule";
  rep.seed_base = opt.single_seed ? *opt.single_seed : opt.seed_base;
  auto sweep_t0 = std::chrono::steady_clock::now();
  auto finish = [&](int rc) {
    rep.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - sweep_t0)
                      .count();
    if (!opt.report_path.empty() && !write_report(opt.report_path, rep)) {
      std::fprintf(stderr, "cannot write report to %s\n",
                   opt.report_path.c_str());
      return rc ? rc : 2;
    }
    return rc;
  };

  if (opt.restart)
    return finish(run_restart_sweep(opt, workload, base.outcomes, seeds,
                                    &rep));
  if (opt.cluster)
    return finish(run_cluster_sweep(opt, workload, base.outcomes, seeds,
                                    &rep));

  uint64_t total_faults = 0;
  int failures = 0;
  for (uint64_t seed : seeds) {
    // Purity check: re-deriving the plan must give the identical
    // injection schedule.
    uint64_t fp1 = FaultPlan::random(seed).schedule_fingerprint();
    uint64_t fp2 = FaultPlan::random(seed).schedule_fingerprint();
    if (fp1 != fp2) {
      rep.violations.push_back("seed " + std::to_string(seed) +
                               ": schedule fingerprint not reproducible");
      std::fprintf(stderr,
                   "FAIL seed %llu: schedule fingerprint not reproducible\n",
                   static_cast<unsigned long long>(seed));
      return finish(1);
    }

    int rounds = (opt.repeat && opt.single_seed) ? 2 : 1;
    ScheduleResult first;
    ++rep.seeds_run;
    for (int round = 0; round < rounds; ++round) {
      ScheduleResult r = run_schedule(workload, &base.outcomes,
                                      FaultPlan::random(seed), opt.verbose);
      for (const auto& [point, st] : r.fault_stats) total_faults += st.fires;
      if (!r.violations.empty()) {
        rep.violations.push_back("seed " + std::to_string(seed) + ": " +
                                 r.violations[0]);
        std::fprintf(
            stderr,
            "FAIL seed %llu: %s\n  repro: picola_chaos --seed %llu --repeat\n",
            static_cast<unsigned long long>(seed), r.violations[0].c_str(),
            static_cast<unsigned long long>(seed));
        ++failures;
        break;
      }
      if (opt.verbose || opt.single_seed) {
        std::fprintf(stderr, "seed %llu ok: %.0f ms, faults:",
                     static_cast<unsigned long long>(seed), r.wall_ms);
        for (const auto& [point, st] : r.fault_stats)
          if (st.fires)
            std::fprintf(stderr, " %s=%llu", point.c_str(),
                         static_cast<unsigned long long>(st.fires));
        std::fprintf(stderr, "\n");
      }
      if (round == 0) {
        first = std::move(r);
      } else {
        bool same = first.schedule_fp == r.schedule_fp &&
                    first.outcomes.size() == r.outcomes.size();
        for (size_t i = 0; same && i < first.outcomes.size(); ++i)
          same = first.outcomes[i] == r.outcomes[i];
        if (!same) {
          rep.violations.push_back("seed " + std::to_string(seed) +
                                   ": rerun diverged from first run");
          std::fprintf(stderr,
                       "FAIL seed %llu: rerun diverged from first run\n",
                       static_cast<unsigned long long>(seed));
          ++failures;
        } else {
          std::fprintf(stderr,
                       "seed %llu: rerun identical (schedule fp %016llx)\n",
                       static_cast<unsigned long long>(seed),
                       static_cast<unsigned long long>(r.schedule_fp));
        }
      }
    }
    if (failures) break;
  }

  rep.faults_fired = total_faults;
  if (failures) return finish(1);
  std::fprintf(stderr,
               "PASS %zu schedule(s), %llu faults injected, 0 violations\n",
               seeds.size(), static_cast<unsigned long long>(total_faults));
  return finish(0);
}
