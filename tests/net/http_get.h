#pragma once
// Blocking loopback HTTP/1.0 GET for the admin-plane tests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace picola::net {

/// Blocking loopback HTTP/1.0 GET.  Returns status code and body, or
/// nullopt on transport failure.
inline std::optional<std::pair<int, std::string>> http_get(
    uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t off = 0;
  while (off < req.size()) {
    ssize_t n = ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    off += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[8192];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t sp = resp.find(' ');
  size_t hdr_end = resp.find("\r\n\r\n");
  if (sp == std::string::npos || hdr_end == std::string::npos)
    return std::nullopt;
  int code = std::atoi(resp.c_str() + sp + 1);
  return std::make_pair(code, resp.substr(hdr_end + 4));
}

}  // namespace picola::net
