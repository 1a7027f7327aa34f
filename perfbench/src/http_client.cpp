#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>

namespace perfbench {

namespace {

HttpReply exchange(int port, const std::string& wire) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return reply;
  }
  size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[16384];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
    raw.append(chunk, static_cast<size_t>(n));
  ::close(fd);
  if (off < wire.size() || raw.compare(0, 5, "HTTP/") != 0) return reply;
  const size_t space = raw.find(' ');
  const size_t split = raw.find("\r\n\r\n");
  if (space == std::string::npos || split == std::string::npos) return reply;
  reply.status = std::atoi(raw.c_str() + space + 1);
  reply.body = raw.substr(split + 4);
  reply.bytes = raw.size();
  return reply;
}

}  // namespace

HttpReply httpGet(int port, const std::string& path) {
  return exchange(port, "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n");
}

HttpReply httpPost(int port, const std::string& path,
                   const std::string& json) {
  return exchange(port, "POST " + path +
                            " HTTP/1.1\r\nHost: bench\r\n"
                            "Content-Type: application/json\r\n"
                            "Content-Length: " +
                            std::to_string(json.size()) + "\r\n\r\n" + json);
}

}  // namespace perfbench
