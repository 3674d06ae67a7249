// perfbench_loadgen: one run of one serving workload against
// `picola serve --tcp 0 --jobs 2`, driven over loopback by closed-loop
// clients.  Prints a readable report and, as its last line, the JSON
// result (end-to-end metrics, or per-layer metrics with --trace 1).
// perfbench/README.md describes the workloads and every metric.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "metrics.h"
#include "net/client.h"
#include "net/json.h"
#include "portfolio/backend.h"
#include "replay.h"
#include "server.h"
#include "workload.h"

namespace fs = std::filesystem;
using picola::net::Client;
using picola::net::JsonValue;

namespace perfbench {
namespace {

constexpr int kSetups = 21;  // set-ups per run; setup_s is their median
constexpr int kRequestTimeoutMs = 60'000;
constexpr double kHardCapExtraS = 40;  // past --seconds, for the sample guard
constexpr int kRecoveryReps = 5;
constexpr auto kPingGap = std::chrono::milliseconds(2);
constexpr auto kRssGap = std::chrono::milliseconds(100);
constexpr int kReferenceThreads = 4;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string picola;
  std::string expected_dir;
  std::string work_dir;
  bool write_expected = false;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A closed-loop connection to the server under test: one request in
// flight at a time.  Throws std::runtime_error when it cannot connect.
std::unique_ptr<Client> connect_to(uint16_t port) {
  picola::net::ClientOptions o;
  o.io_timeout_ms = kRequestTimeoutMs;
  auto c = std::make_unique<Client>(o);
  std::string error;
  if (!c->connect("127.0.0.1", port, &error))
    throw std::runtime_error("connect 127.0.0.1:" + std::to_string(port) +
                             ": " + error);
  return c;
}

// Send one payload and wait for its reply; nullopt on a transport
// failure or timeout (the client is then closed).
std::optional<std::string> round_trip(Client& c, const std::string& payload) {
  if (!c.send(payload)) return std::nullopt;
  return c.recv();
}

void parse_reply(const std::string& text, uint64_t id, Reply* r) {
  std::string err;
  auto v = JsonValue::parse(text, &err);
  if (!v || !v->is_object()) {
    r->error = "unparseable reply: " + err;
    return;
  }
  const JsonValue* rid = v->find("id");
  if (!rid || !rid->is_number() || static_cast<uint64_t>(rid->as_int()) != id) {
    r->error = "reply id does not match the request";
    return;
  }
  const JsonValue* ok = v->find("ok");
  if (!ok || !ok->is_bool() || !ok->as_bool()) {
    const JsonValue* e = v->find("error");
    r->error = e && e->is_string() ? e->as_string() : "reply without ok";
    return;
  }
  const JsonValue* enc = v->find("enc");
  const JsonValue* cubes = v->find("cubes");
  const JsonValue* cached = v->find("cached");
  const JsonValue* wall = v->find("wall_ms");
  const JsonValue* backend = v->find("backend");
  const JsonValue* bits = v->find("bits");
  const auto kind = backend && backend->is_string()
                       ? picola::portfolio::parse_backend_kind(backend->as_string())
                       : std::nullopt;
  if (!enc || !enc->is_string() || !cubes || !cubes->is_number() || !cached ||
      !wall || !kind || !bits) {
    r->error = "ok reply lacks a field";
    return;
  }
  char* end = nullptr;
  r->enc = std::strtoull(enc->as_string().c_str(), &end, 16);
  if (enc->as_string().empty() || *end != '\0') {
    r->error = "ok reply with a malformed enc";
    return;
  }
  r->ok = true;
  r->cubes = static_cast<long>(cubes->as_int());
  r->cached = cached->as_int() != 0;
  r->wall_ms = wall->as_double();
  r->backend = *kind;
  r->bits = static_cast<int>(bits->as_int());
}

class Runner {
 public:
  Runner(const Options& opt, const Workload& w) : opt_(opt), w_(w) {
    for (const Problem& p : w.problems) {
      std::string head = "{";
      if (p.backend == picola::portfolio::BackendKind::kPortfolio)
        head += "\"backend\":\"portfolio\",";
      head += "\"con\":" + JsonValue::make_string(p.text).dump() + ",\"id\":";
      heads_.push_back(std::move(head));
    }
  }

  Pass run(bool traced, int setups, Tracer* tracer);

 private:
  std::string fresh_dir() {
    std::string dir = opt_.work_dir + "/" + w_.name + "-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(dirs_++);
    fs::create_directories(dir);
    return dir;
  }

  Reply call(Client& conn, size_t problem, int conn_index,
             double phase_start) {
    const uint64_t id = ++next_id_;
    const std::string payload = heads_[problem] + std::to_string(id) + "}";
    Reply r;
    r.id = id;
    r.problem = problem;
    r.conn = conn_index;
    const double t0 = now_s();
    auto text = round_trip(conn, payload);
    const double t1 = now_s();
    r.start_ms = (t0 - phase_start) * 1000;
    r.latency_ms = (t1 - t0) * 1000;
    if (text) {
      r.bytes = 2 * picola::net::kFrameHeaderBytes + payload.size() +
                text->size();
      parse_reply(*text, id, &r);
    } else {
      r.error = "transport failure or timeout";
    }
    return r;
  }

  std::vector<Reply> send_each(uint16_t port,
                               const std::vector<size_t>& problems,
                               Pass* pass) {
    auto conn = connect_to(port);
    std::vector<Reply> out;
    for (size_t p : problems) {
      out.push_back(call(*conn, p, 0, now_s()));
      if (!out.back().ok)
        pass->faults.push_back("set-up request " + w_.problems[p].label +
                                 " failed: " + out.back().error);
    }
    return out;
  }

  void finish(std::unique_ptr<ServerProcess>& server, const std::string& dir,
              bool remove, Pass* pass) {
    const ServerProcess::Exit e = server->drain();
    server.reset();
    ++pass->lifetimes;
    pass->shutdown_ms = e.shutdown_ms;
    if (!e.clean)
      pass->faults.push_back("server on " + dir + ": " + e.detail +
                               " (stderr in " + dir + "/stderr)");
    if (!remove) return;
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (fs::exists(dir))
      pass->faults.push_back("cache dir " + dir + " not removed");
  }

  void measure(ServerProcess& server, bool traced, Pass* pass);

  const Options& opt_;
  const Workload& w_;
  std::vector<std::string> heads_;
  std::atomic<uint64_t> next_id_{0};
  int dirs_ = 0;
};

Pass Runner::run(bool traced, int setups, Tracer* tracer) {
  Pass pass;
  std::string dir = fresh_dir();
  std::unique_ptr<ServerProcess> server;
  if (w_.primed) {
    // An earlier lifetime on the same dir computes the working set.
    server = std::make_unique<ServerProcess>(opt_.picola, dir + "/cache",
                                             dir + "/stderr");
    send_each(server->port(), w_.warmup, &pass);
    finish(server, dir, false, &pass);
  }
  for (int k = 0; k < setups; ++k) {
    if (k > 0 && !w_.primed) dir = fresh_dir();
    const double t0 = now_s();
    server = std::make_unique<ServerProcess>(opt_.picola, dir + "/cache",
                                             dir + "/stderr");
    pass.warmup = send_each(server->port(), w_.warmup, &pass);
    pass.setup_s.push_back(now_s() - t0);
    if (k + 1 < setups) finish(server, dir, !w_.primed, &pass);
  }
  measure(*server, traced, &pass);
  finish(server, dir, false, &pass);
  if (traced)
    pass.recovered_entries = replay_recovery(dir + "/cache", kRecoveryReps,
                                             tracer, &pass.recover_ms);
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (fs::exists(dir))
    pass.faults.push_back("cache dir " + dir + " not removed");
  return pass;
}

void Runner::measure(ServerProcess& server, bool traced, Pass* pass) {
  std::unique_ptr<Client> probe;
  if (traced) {
    probe = connect_to(server.port());
    if (auto m = round_trip(*probe, "{\"cmd\":\"metrics\"}"))
      pass->metrics_before = JsonValue::parse(*m);
  }
  std::vector<std::atomic<size_t>> cursors(w_.streams.size());
  std::atomic<size_t> attempted{0};
  std::atomic<bool> exhausted{false};
  std::vector<std::vector<Reply>> replies;
  std::vector<double> last_reply;
  std::vector<std::pair<size_t, int>> workers;  // (stream, connection)
  for (size_t s = 0; s < w_.streams.size(); ++s)
    for (int c = 0; c < w_.streams[s].connections; ++c)
      workers.emplace_back(s, static_cast<int>(workers.size()));
  replies.resize(workers.size());
  last_reply.resize(workers.size());

  // Connect before the clock starts; a connection lost mid-phase is
  // re-made by its client (and the lost request counts as failed).
  std::vector<std::unique_ptr<Client>> conns;
  for (size_t i = 0; i < workers.size(); ++i)
    conns.push_back(connect_to(server.port()));

  const double hard_cap = opt_.seconds + kHardCapExtraS;
  const double cpu0 = server.cpu_seconds();
  const double start = now_s();
  std::atomic<size_t> finished{0};
  std::vector<std::thread> threads;
  for (const auto& [stream_index, conn_index] : workers) {
    threads.emplace_back([&, stream_index = stream_index,
                          conn_index = conn_index]() {
      const Stream& st = w_.streams[stream_index];
      const auto slot = static_cast<size_t>(conn_index);
      std::vector<Reply>& out = replies[slot];
      std::unique_ptr<Client>& conn = conns[slot];
      last_reply[slot] = start;
      while (!phase_done(now_s() - start, attempted.load(), opt_.seconds,
                         w_.min_requests, hard_cap)) {
        const size_t k = cursors[stream_index]++;
        if (!st.cycle && k >= st.order.size()) {
          exhausted = true;
          break;
        }
        const size_t problem = st.order[k % st.order.size()];
        try {
          if (!conn->connected()) conn = connect_to(server.port());
          out.push_back(call(*conn, problem, conn_index, start));
        } catch (const std::exception& e) {  // the server is gone
          Reply r;
          r.problem = problem;
          r.conn = conn_index;
          r.error = e.what();
          out.push_back(r);
          ++attempted;
          break;
        }
        last_reply[slot] = now_s();
        ++attempted;
      }
      ++finished;
    });
  }
  std::atomic<bool> stop_probe{false};
  std::thread pinger;
  if (traced)
    pinger = std::thread([&]() {
      uint64_t n = 0;
      while (!stop_probe) {
        const double t0 = now_s();
        if (!round_trip(*probe, "{\"cmd\":\"ping\",\"id\":" +
                                  std::to_string(++n) + "}"))
          break;
        pass->ping_ms.push_back((now_s() - t0) * 1000);
        std::this_thread::sleep_for(kPingGap);
      }
    });
  while (finished < threads.size()) {
    pass->rss_mb.push_back(server.status_mb("VmRSS"));
    std::this_thread::sleep_for(kRssGap);
  }
  for (auto& t : threads) t.join();
  stop_probe = true;
  if (pinger.joinable()) pinger.join();

  pass->elapsed_s = *std::max_element(last_reply.begin(), last_reply.end()) -
                    start;
  pass->cpu_s = server.cpu_seconds() - cpu0;
  pass->peak_rss_mb = server.status_mb("VmHWM");
  pass->exhausted = exhausted;
  if (traced)
    if (auto m = round_trip(*probe, "{\"cmd\":\"metrics\"}"))
      pass->metrics_after = JsonValue::parse(*m);
  for (auto& r : replies)
    pass->measured.insert(pass->measured.end(), r.begin(), r.end());
  std::sort(pass->measured.begin(), pass->measured.end(),
            [](const Reply& a, const Reply& b) { return a.start_ms < b.start_ms; });
}

// --- output --------------------------------------------------------------

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("# %s\n", title);
  for (const auto& m : ms)
    std::printf("#   %-34s %14s %-6s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str(), m.note.c_str());
}

std::string result_json(bool correct, size_t attempted, size_t failed,
                        const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}}";
}

// Replay spans as a Chrome trace; client spans (one per request, a few
// hundred thousand on hot_con) as compact tab-separated lines.
void write_trace(const std::string& trace_path, const std::string& clients_path,
                 const Workload& w, const Tracer& t, const Pass& traced) {
  std::ofstream out(trace_path);
  out << "{\"traceEvents\":[";
  const uint64_t base = t.spans().empty() ? 0 : t.spans().front().start_ns;
  for (size_t i = 0; i < t.spans().size(); ++i) {
    const Span& s = t.spans()[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << fmt(static_cast<double>(s.start_ns - base) / 1e3)
        << ",\"dur\":" << fmt(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "]}\n";
  std::ofstream clients(clients_path);
  clients << "id\tconn\tproblem\tclass\tstart_ms\tlatency_ms\tok\tcached\t"
             "wall_ms\n";
  for (const Reply& r : traced.measured)
    clients << r.id << '\t' << r.conn << '\t' << r.problem << '\t'
            << (w.problems[r.problem].kind == TextKind::kKiss ? "kiss" : "con")
            << '\t' << fmt(r.start_ms) << '\t' << fmt(r.latency_ms) << '\t'
            << r.ok << '\t' << r.cached << '\t' << fmt(r.wall_ms) << '\n';
}

int write_expected(const Options& opt) {
  const Workload w = make_workload(opt.workload, kDefaultSeed);
  std::vector<size_t> all(w.problems.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  Reference ref;
  compute_reference(w, all, kReferenceThreads, &ref);
  const std::string path = opt.expected_dir + "/" + w.name + ".tsv";
  const std::string header =
      "# Expected replies of workload " + w.name + " on seed " +
      std::to_string(kDefaultSeed) +
      ": canonical fingerprint, enc, cubes.\n"
      "# Regenerate with: python3 perfbench/run.py --write-expected\n";
  if (!save_reference(path, header, w, ref)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu expected replies to %s\n", ref.size(), path.c_str());
  return 0;
}

int run(const Options& opt) {
  const double t_start = now_s();
  const Workload w = make_workload(opt.workload, opt.seed);
  const bool default_seed = opt.seed == kDefaultSeed;
  Reference ref;
  if (default_seed) {
    std::string error;
    auto loaded =
        load_reference(opt.expected_dir + "/" + w.name + ".tsv", &error);
    if (!loaded) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    ref = std::move(*loaded);
  }
  std::printf("# workload %s  seed %llu  seconds %s  trace %d  problems %zu\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              fmt(opt.seconds).c_str(), opt.trace ? 1 : 0, w.problems.size());
  fs::create_directories(opt.work_dir);

  Runner runner(opt, w);
  Tracer tracer;
  Pass plain = runner.run(false, kSetups, nullptr);
  std::optional<Pass> traced;
  if (opt.trace) traced = runner.run(true, 1, &tracer);

  // The reference is computed after every timed phase.
  if (!default_seed) {
    std::vector<size_t> served = w.quality_set;
    for (const Pass* p : {&plain, traced ? &*traced : nullptr}) {
      if (!p) continue;
      for (const auto* list : {&p->measured, &p->warmup})
        for (const Reply& r : *list) served.push_back(r.problem);
    }
    compute_reference(w, served, kReferenceThreads, &ref);
  }
  mark_good(w, ref, &plain.measured);
  mark_good(w, ref, &plain.warmup);
  EndToEnd e2e = end_to_end(w, plain, ref, default_seed);
  const Properties props = properties(w, plain);

  print_table("end-to-end (untraced)", e2e.metrics);
  std::printf(
      "# properties: hit_share=%s derive_repeat_share=%s nv_le7_share=%s "
      "slots_per_job=%s\n",
      fmt(props.hit_share).c_str(), fmt(props.derive_repeat_share).c_str(),
      fmt(props.nv_le7_share).c_str(), fmt(props.slots_per_job).c_str());
  if (plain.exhausted)
    std::printf("# the request list ran out after %s s\n",
                fmt(plain.elapsed_s).c_str());

  std::vector<Metric> reported = e2e.metrics;
  std::vector<std::string> faults = e2e.faults;
  size_t attempted = e2e.attempted, failed = e2e.failed;
  int lifetimes = plain.lifetimes;
  if (traced) {
    mark_good(w, ref, &traced->measured);
    mark_good(w, ref, &traced->warmup);
    EndToEnd te = end_to_end(w, *traced, ref, default_seed);
    const ReplayFigures figs = replay(w, w.quality_set, ref, &tracer);
    reported = per_layer(w, *traced, figs);
    print_table("per-layer (traced)", reported);
    std::printf("# tracing overhead (traced - untraced):\n");
    for (const char* name :
         {"jobs_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_job"}) {
      const double a = value_of(e2e.metrics, name);
      const double b = value_of(te.metrics, name);
      std::printf("#   %-16s %12s -> %12s  (%+.1f%%)\n", name, fmt(a).c_str(),
                  fmt(b).c_str(), a != 0 ? (b - a) / a * 100 : 0.0);
    }
    const auto self = tracer.self_ms();
    double total = 0;
    for (const auto& [name, ms] : self) total += ms;
    std::vector<std::pair<double, std::string>> order;
    for (const auto& [name, ms] : self) order.emplace_back(ms, name);
    std::sort(order.rbegin(), order.rend());
    std::printf("# replay self time (%zu problems, %s ms):\n",
                w.quality_set.size(), fmt(total).c_str());
    for (const auto& [ms, name] : order)
      std::printf("#   %-22s %10.2f ms  %5.1f%%\n", name.c_str(), ms,
                  total > 0 ? ms / total * 100 : 0);
    // One pair of files per workload: the latest traced run.
    const std::string trace_path = opt.work_dir + "/trace-" + w.name + ".json";
    const std::string clients_path =
        opt.work_dir + "/clients-" + w.name + ".tsv";
    write_trace(trace_path, clients_path, w, tracer, *traced);
    std::printf("# spans written to %s and %s\n", trace_path.c_str(),
                clients_path.c_str());
    if (figs.mismatches)
      faults.push_back(std::to_string(figs.mismatches) +
                         " replayed results differ from the reference");
    faults.insert(faults.end(), te.faults.begin(), te.faults.end());
    attempted += te.attempted;
    failed += te.failed;
    lifetimes += traced->lifetimes;
  }
  std::printf("# lifecycle: %d server lifetimes, %s\n", lifetimes,
              faults.empty() ? "each drained with exit 0, cache dirs removed"
                             : "FAULTS:");
  for (const auto& i : faults) std::printf("#   %s\n", i.c_str());
  std::printf("# run took %s s\n", fmt(now_s() - t_start).c_str());
  const bool correct = faults.empty() && failed == 0;
  std::printf("%s\n", result_json(correct, attempted, failed, reported).c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --workload W --seed N --seconds S "
               "--trace 0|1 --picola PATH --expected-dir DIR --work-dir DIR\n"
               "       perfbench_loadgen --write-expected --workload W "
               "--expected-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() == "1";
      else if (a == "--picola") opt.picola = value();
      else if (a == "--expected-dir") opt.expected_dir = value();
      else if (a == "--work-dir") opt.work_dir = value();
      else if (a == "--write-expected") opt.write_expected = true;
      else return usage();
    }
    if (opt.workload.empty() || opt.expected_dir.empty()) return usage();
    if (opt.write_expected) return write_expected(opt);
    if (opt.picola.empty() || opt.work_dir.empty() || opt.seconds <= 0)
      return usage();
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
