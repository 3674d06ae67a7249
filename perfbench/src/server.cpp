#include "server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Read from `fd` until `stop(buffer)` or EOF or the deadline; returns
// false on deadline.
template <class Stop>
bool read_until(int fd, double deadline, std::string* buffer, Stop stop) {
  char chunk[4096];
  while (!stop(*buffer)) {
    const double left = deadline - now_s();
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    int rc = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return true;  // EOF
    buffer->append(chunk, static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& picola,
                             const std::string& cache_dir,
                             const std::string& stderr_path) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  const int err_fd =
      ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
             0644);
  std::vector<std::string> args = {picola,  "serve",       "--tcp", "0",
                                   "--jobs", "2", "--cache-dir", cache_dir};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    if (err_fd >= 0) ::dup2(err_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  if (err_fd >= 0) ::close(err_fd);
  if (pid_ < 0) {
    ::close(out[0]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  stdout_fd_ = out[0];
  std::string banner;
  read_until(stdout_fd_, now_s() + 60, &banner, [](const std::string& b) {
    return b.find('\n') != std::string::npos;
  });
  const size_t colon = banner.find(':');
  const long port = colon == std::string::npos
                        ? 0
                        : std::strtol(banner.c_str() + colon + 1, nullptr, 10);
  if (banner.rfind("listening ", 0) != 0 || port <= 0 || port > 65535) {
    kill_and_reap();
    throw std::runtime_error("server did not start (stdout: \"" + banner +
                             "\", stderr in " + stderr_path + ")");
  }
  port_ = static_cast<uint16_t>(port);
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

void ServerProcess::kill_and_reap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

double ServerProcess::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::status_mb(const std::string& field) const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  const std::string key = field + ":";
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0)
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;  // kB
  return 0;
}

ServerProcess::Exit ServerProcess::drain(double timeout_s) {
  Exit e;
  const double t0 = now_s();
  ::kill(pid_, SIGTERM);
  std::string rest;
  const bool eof = read_until(stdout_fd_, t0 + timeout_s, &rest,
                              [](const std::string&) { return false; });
  int status = 0;
  if (!eof) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    e.detail = "did not exit within " + std::to_string(timeout_s) +
               " s of SIGTERM; killed";
  } else {
    ::waitpid(pid_, &status, 0);
    e.shutdown_ms = (now_s() - t0) * 1000;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      e.clean = true;
      e.detail = "exit 0";
    } else if (WIFEXITED(status)) {
      e.detail = "exit " + std::to_string(WEXITSTATUS(status));
    } else {
      e.detail = "killed by signal " + std::to_string(WTERMSIG(status));
    }
  }
  pid_ = -1;
  return e;
}

}  // namespace perfbench
