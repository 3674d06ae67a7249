#pragma once
// The server under test as a child process (`picola serve --tcp 0`).

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// One `picola serve --tcp 0 --jobs 2 --cache-dir <dir>` lifetime.  The
/// destructor SIGKILLs and reaps a server that was not drained, and the
/// child dies with the benchmark (PR_SET_PDEATHSIG).
class ServerProcess {
 public:
  /// Spawns the server and waits for its "listening" line.  Throws
  /// std::runtime_error when it does not start.
  ServerProcess(const std::string& picola, const std::string& cache_dir,
                const std::string& stderr_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// User + system CPU of the whole process so far (/proc/<pid>/stat).
  double cpu_seconds() const;
  /// A size field of /proc/<pid>/status in MB: "VmRSS" (resident now)
  /// or "VmHWM" (peak so far).
  double status_mb(const std::string& field) const;

  struct Exit {
    bool clean = false;  ///< exited on its own with code 0
    std::string detail;  ///< how it ended, for the lifecycle report
    double shutdown_ms = 0;  ///< SIGTERM to exit
  };
  /// Graceful drain: SIGTERM, then wait for the exit.  A server that
  /// has not exited after `timeout_s` is killed and reported unclean.
  Exit drain(double timeout_s = 60);

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench
