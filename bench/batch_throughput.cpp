// Batch-encoding throughput of the concurrent EncodingService.
//
// Workload: the Table I input-encoding problems (IWLS'93-profile
// reconstructions), each submitted as a 4-restart job.  For 1, N/2 and N
// worker threads the bench measures cold jobs/sec (empty cache), then
// replays the identical batch against the warm cache to measure the
// memoisation speedup.  Results are printed as a table and written to
// BENCH_batch.json so the perf trajectory of the service layer is
// tracked across PRs.
//
// --warm-restart adds a durability phase (persist/store.h): one service
// runs the batch cold with a cache dir attached (journaling every
// insert), shuts down (writing the final snapshot), and a *fresh*
// service recovers from the same dir and replays the batch.  Cold vs
// warmed jobs/sec and the warm hit rate land in BENCH_batch.json —
// the price of journaling and the payoff of a warm restart, tracked
// together.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "constraints/derive.h"
#include "eval/metrics.h"
#include "kiss/benchmarks.h"
#include "persist/io.h"
#include "service/service.h"

using namespace picola;

namespace {

constexpr int kRestarts = 4;
constexpr int kRepeat = 3;  ///< duplicate submissions per problem

std::vector<Job> make_workload() {
  std::vector<Job> jobs;
  for (const std::string& name : table1_benchmarks()) {
    Fsm fsm = make_benchmark(name);
    Job job;
    job.set = derive_face_constraints(fsm).set;
    if (job.set.num_symbols < 2 || job.set.size() == 0) continue;
    job.restarts = kRestarts;
    job.tag = name;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct Measurement {
  int threads = 0;
  double cold_ms = 0;
  double cold_jobs_per_sec = 0;
  double replay_ms = 0;
  double replay_speedup = 0;
  std::string stats_json;  ///< EncodingService::stats_json() at the end
};

Measurement run_once(const std::vector<Job>& jobs, int threads) {
  Measurement m;
  m.threads = threads;
  ServiceOptions so;
  so.num_threads = threads;
  so.cache_capacity = 4096;
  EncodingService service(so);

  // Cold pass: every submission (kRepeat per problem) computes or shares
  // an in-flight duplicate.
  Stopwatch sw;
  for (int rep = 0; rep < kRepeat; ++rep)
    for (const Job& j : jobs) service.submit(j);
  service.wait_all();
  m.cold_ms = sw.elapsed_ms();
  size_t total = jobs.size() * static_cast<size_t>(kRepeat);
  m.cold_jobs_per_sec =
      m.cold_ms > 0 ? 1000.0 * static_cast<double>(total) / m.cold_ms : 0;

  // Replay pass: identical batch, warm cache.
  sw.restart();
  for (int rep = 0; rep < kRepeat; ++rep)
    for (const Job& j : jobs) service.submit(j);
  service.wait_all();
  m.replay_ms = sw.elapsed_ms();
  m.replay_speedup = m.replay_ms > 0 ? m.cold_ms / m.replay_ms : 0;
  m.stats_json = service.stats_json();
  return m;
}

struct WarmRestartMeasurement {
  bool ran = false;
  int threads = 0;
  double cold_ms = 0;        ///< batch with journaling on, empty dir
  double cold_jobs_per_sec = 0;
  double warm_ms = 0;        ///< same batch, fresh service, recovered cache
  double warm_jobs_per_sec = 0;
  double restart_speedup = 0;
  double warm_hit_rate = 0;  ///< warm-pass finished-cache hits / submissions
  size_t recovered = 0;      ///< entries the restart loaded from disk
};

/// Cold service with a durable cache dir -> shutdown snapshot -> fresh
/// service recovers and replays.  The two rates bracket persistence:
/// cold_jobs_per_sec carries the journaling overhead, warm_jobs_per_sec
/// is restart-from-snapshot serving.
WarmRestartMeasurement run_warm_restart(const std::vector<Job>& jobs,
                                        int threads) {
  WarmRestartMeasurement w;
  char tmpl[] = "/tmp/picola_bench_persist.XXXXXX";
  if (!mkdtemp(tmpl)) {
    std::fprintf(stderr, "warm-restart: mkdtemp failed\n");
    return w;
  }
  ServiceOptions so;
  so.num_threads = threads;
  so.cache_capacity = 4096;
  so.cache_dir = tmpl;
  so.snapshot_interval_s = -1;  // journal during the run; snapshot at exit
  const size_t total = jobs.size() * static_cast<size_t>(kRepeat);

  {
    EncodingService service(so);
    Stopwatch sw;
    for (int rep = 0; rep < kRepeat; ++rep)
      for (const Job& j : jobs) service.submit(j);
    service.wait_all();
    w.cold_ms = sw.elapsed_ms();
  }  // destructor drains the pool and writes the shutdown snapshot

  {
    EncodingService service(so);  // recovers the cache from the dir
    w.recovered = service.cache().size();
    Stopwatch sw;
    for (int rep = 0; rep < kRepeat; ++rep)
      for (const Job& j : jobs) service.submit(j);
    service.wait_all();
    w.warm_ms = sw.elapsed_ms();
    const uint64_t hits =
        service.metrics().counter_value("service/cache_hits");
    w.warm_hit_rate =
        total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                  : 0;
  }

  for (const std::string& name : persist::io::list_dir(tmpl))
    persist::io::unlink_file(std::string(tmpl) + "/" + name, nullptr);
  rmdir(tmpl);

  w.threads = threads;
  w.cold_jobs_per_sec =
      w.cold_ms > 0 ? 1000.0 * static_cast<double>(total) / w.cold_ms : 0;
  w.warm_jobs_per_sec =
      w.warm_ms > 0 ? 1000.0 * static_cast<double>(total) / w.warm_ms : 0;
  w.restart_speedup = w.warm_ms > 0 ? w.cold_ms / w.warm_ms : 0;
  w.ran = true;
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  bool warm_restart = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--warm-restart") == 0) {
      warm_restart = true;
    } else {
      std::fprintf(stderr, "usage: batch_throughput [--warm-restart]\n");
      return 2;
    }
  }
  std::vector<Job> jobs = make_workload();
  unsigned hw = std::thread::hardware_concurrency();
  int n = hw > 0 ? static_cast<int>(hw) : 4;
  // 1, N/2 and N threads, plus a 4-thread point so runs on different
  // machines share a comparable column.
  std::vector<int> thread_counts = {1, std::max(2, n / 2), n, 4};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  std::printf("batch throughput: %zu problems x %d submissions, %d restarts "
              "per job\n\n",
              jobs.size(), kRepeat, kRestarts);
  std::printf("%8s | %10s %10s | %10s %8s\n", "threads", "cold ms",
              "jobs/sec", "replay ms", "speedup");
  std::printf("%.*s\n", 56,
              "--------------------------------------------------------");

  std::vector<Measurement> results;
  for (int t : thread_counts) results.push_back(run_once(jobs, t));

  for (const Measurement& m : results)
    std::printf("%8d | %10.1f %10.1f | %10.2f %8.1fx\n", m.threads, m.cold_ms,
                m.cold_jobs_per_sec, m.replay_ms, m.replay_speedup);
  if (results.size() > 1) {
    const Measurement& base = results.front();
    const Measurement& top = results.back();
    std::printf("\nscaling %d -> %d threads: %.2fx throughput\n", base.threads,
                top.threads, top.cold_jobs_per_sec / base.cold_jobs_per_sec);
  }

  WarmRestartMeasurement wr;
  if (warm_restart) {
    wr = run_warm_restart(jobs, thread_counts.back());
    if (wr.ran)
      std::printf(
          "\nwarm restart (%d threads): cold %.1f jobs/s (journaling) -> "
          "recovered %zu entries -> warm %.1f jobs/s (%.1fx, hit rate "
          "%.2f)\n",
          wr.threads, wr.cold_jobs_per_sec, wr.recovered,
          wr.warm_jobs_per_sec, wr.restart_speedup, wr.warm_hit_rate);
  }

  FILE* f = std::fopen("BENCH_batch.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_batch.json\n");
    return 1;
  }
  std::fprintf(f, "{\"problems\":%zu,\"submissions_per_problem\":%d,"
               "\"restarts\":%d,\"runs\":[",
               jobs.size(), kRepeat, kRestarts);
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(f,
                 "%s{\"threads\":%d,\"cold_ms\":%.3f,\"jobs_per_sec\":%.2f,"
                 "\"replay_ms\":%.3f,\"cache_replay_speedup\":%.2f,"
                 "\"stats\":%s}",
                 i ? "," : "", m.threads, m.cold_ms, m.cold_jobs_per_sec,
                 m.replay_ms, m.replay_speedup,
                 m.stats_json.c_str());
  }
  std::fprintf(f, "]");
  if (wr.ran)
    std::fprintf(f,
                 ",\"warm_restart\":{\"threads\":%d,\"cold_ms\":%.3f,"
                 "\"cold_jobs_per_sec\":%.2f,\"recovered_entries\":%zu,"
                 "\"warm_ms\":%.3f,\"warm_jobs_per_sec\":%.2f,"
                 "\"restart_speedup\":%.2f,\"warm_hit_rate\":%.4f}",
                 wr.threads, wr.cold_ms, wr.cold_jobs_per_sec, wr.recovered,
                 wr.warm_ms, wr.warm_jobs_per_sec, wr.restart_speedup,
                 wr.warm_hit_rate);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_batch.json\n");
  return 0;
}
