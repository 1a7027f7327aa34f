#pragma once
// Minimal blocking HTTP/1.1 client for the loopback daemon: one request
// per connection, as the daemon serves them.

#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;  ///< 0 = connection or protocol failure
  std::string body;
  size_t bytes = 0;  ///< whole response, headers included
};

HttpReply httpGet(int port, const std::string& path);
HttpReply httpPost(int port, const std::string& path, const std::string& json);

}  // namespace perfbench
