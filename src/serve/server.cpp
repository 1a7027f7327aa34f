#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <random>
#include <system_error>

#include "obs/log.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "util/error.h"

namespace ahfic::serve {

namespace {

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void setSocketTimeouts(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// send() the whole buffer; false on error/timeout. MSG_NOSIGNAL so a
/// peer that closed early yields EPIPE instead of killing the process.
bool sendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

void replyAndClose(int fd, const HttpResponse& resp) {
  sendAll(fd, serializeResponse(resp));
  ::close(fd);
}

/// "req-<8 hex process nonce>-<seq>": unique within and across daemon
/// restarts (the nonce is drawn once per process), cheap to generate on
/// the connection path, and greppable.
std::string makeRequestId() {
  static const unsigned long long nonce = [] {
    std::random_device rd;
    return (static_cast<unsigned long long>(rd()) << 32) ^ rd();
  }();
  static std::atomic<unsigned long long> seq{0};
  char buf[48];
  std::snprintf(buf, sizeof buf, "req-%08llx-%llu",
                nonce & 0xffffffffULL, seq.fetch_add(1) + 1);
  return buf;
}

}  // namespace

HttpServer::HttpServer(Router router, ServerOptions opts)
    : router_(std::move(router)),
      opts_(std::move(opts)),
      requests_(obs::counter("serve.requests")),
      requestMs_(obs::histogram("serve.request_ms")) {
  // Pre-register the fixed per-endpoint status-class counters so the
  // request path never takes the registry's registration mutex.
  for (const std::string& name : router_.routeNames()) {
    statusCounters_.emplace(
        name, std::array<obs::Counter, 3>{
                  obs::counter("serve.endpoint." + name + ".2xx"),
                  obs::counter("serve.endpoint." + name + ".4xx"),
                  obs::counter("serve.endpoint." + name + ".5xx")});
  }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  if (running_.load()) throw Error("HttpServer::start: already running");

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0)
    throw Error("socket() failed: " +
                std::system_category().message(errno));

  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.bindAddress.c_str(), &addr.sin_addr) != 1) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw Error("invalid bind address '" + opts_.bindAddress + "'");
  }
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const std::string err = std::system_category().message(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw Error("bind(" + opts_.bindAddress + ":" +
                std::to_string(opts_.port) + ") failed: " + err);
  }
  if (::listen(listenFd_, 128) < 0) {
    const std::string err = std::system_category().message(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw Error("listen() failed: " + err);
  }

  socklen_t len = sizeof addr;
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  stopping_.store(false);
  running_.store(true);
  const int threads = opts_.connectionThreads < 1 ? 1
                                                  : opts_.connectionThreads;
  workers_.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w)
    workers_.emplace_back([this, w] {
      obs::profileSetThreadName(("http-" + std::to_string(w)).c_str());
      workerLoop();
    });
  acceptor_ = std::thread([this] {
    obs::profileSetThreadName("http-accept");
    acceptLoop();
  });
}

void HttpServer::stop() {
  if (!running_.load()) return;
  {
    // stopping_ is atomic, but a worker between its predicate check and
    // the block on connCv_ would miss a notify sent after a bare store;
    // setting the flag with connMu_ held closes that lost-wakeup window.
    util::MutexLock lock(&connMu_);
    stopping_.store(true);
  }

  // Unblock accept() by shutting the listening socket down; close it only
  // once the acceptor, which reads listenFd_, has been joined.
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }

  connCv_.notifyAll();
  for (std::thread& t : workers_) t.join();
  workers_.clear();

  // Whatever is still queued never reached a worker: tell the peers.
  std::deque<int> leftovers;
  {
    util::MutexLock lock(&connMu_);
    leftovers.swap(pendingFds_);
  }
  for (int fd : leftovers)
    replyAndClose(fd, HttpResponse::error(503, "server shutting down"));

  running_.store(false);
}

void HttpServer::acceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listening socket is gone
    }
    setSocketTimeouts(fd, opts_.socketTimeoutSec);

    bool queued = false;
    {
      util::MutexLock lock(&connMu_);
      if (pendingFds_.size() <
          static_cast<size_t>(opts_.pendingConnections)) {
        pendingFds_.push_back(fd);
        queued = true;
      }
    }
    if (!queued) {
      // Shed load at the door; a full pending queue means the workers
      // are saturated and buffering more sockets only adds latency.
      replyAndClose(fd, HttpResponse::error(503, "connection queue full"));
      continue;
    }
    connCv_.notifyOne();
  }
}

void HttpServer::workerLoop() {
  while (true) {
    int fd = -1;
    {
      util::MutexLock lock(&connMu_);
      while (!stopping_.load() && pendingFds_.empty())
        connCv_.wait(&connMu_);
      if (stopping_.load()) return;
      fd = pendingFds_.front();
      pendingFds_.pop_front();
    }
    handleConnection(fd);
  }
}

void HttpServer::noteStatus(const std::string& routeName,
                            int status) const {
  auto it = statusCounters_.find(routeName);
  if (it == statusCounters_.end()) it = statusCounters_.find("other");
  if (it == statusCounters_.end()) return;
  if (status < 400)
    it->second[0].add();
  else if (status < 500)
    it->second[1].add();
  else
    it->second[2].add();
}

void HttpServer::handleConnection(int fd) {
  static const obs::LogSite sParseError =
      obs::logSite(obs::LogLevel::kWarn, "serve.parse_error", 10);
  static const obs::LogSite sTimeout =
      obs::logSite(obs::LogLevel::kWarn, "serve.recv_timeout", 10);
  static const obs::LogSite sRequest =
      obs::logSite(obs::LogLevel::kInfo, "serve.request");

  const auto t0 = std::chrono::steady_clock::now();
  requests_.add();

  std::string buffer;
  HttpRequest req;
  char chunk[8192];

  while (true) {
    ParseResult parsed = parseRequest(buffer, req, opts_.limits);
    if (parsed.state == ParseState::kError) {
      noteStatus("other", parsed.errorStatus);
      if (sParseError)
        sParseError.log("rejected unparseable request")
            .num("status", parsed.errorStatus)
            .str("reason", parsed.errorMessage);
      replyAndClose(fd, HttpResponse::error(parsed.errorStatus,
                                            parsed.errorMessage));
      requestMs_.observe(msSince(t0));
      return;
    }
    if (parsed.state == ParseState::kDone) break;

    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      // Timeout (half-open peer), reset, or orderly close before a full
      // request arrived. 408 is best-effort — the peer may be gone.
      if (sTimeout)
        sTimeout.log("connection closed before a full request")
            .num("bufferedBytes", static_cast<double>(buffer.size()));
      if (!buffer.empty())
        sendAll(fd, serializeResponse(HttpResponse::error(
                        408, "timed out waiting for a complete request")));
      ::close(fd);
      requestMs_.observe(msSince(t0));
      return;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }

  // Correlation: honor a client-supplied id, otherwise mint one. The
  // thread context stamps every log line and span below this point; the
  // response always echoes the id so the client can grep it.
  const std::string* inbound = req.header("x-ahfic-request-id");
  req.requestId = (inbound != nullptr && !inbound->empty())
                      ? *inbound
                      : makeRequestId();
  obs::ScopedTraceContext traceCtx(req.requestId);

  obs::ScopedSpan span("serve.request", "serve");
  span.annotate("request_id", req.requestId);

  Router::Dispatched d = router_.dispatch(req);
  d.response.extraHeaders.emplace_back("X-Ahfic-Request-Id",
                                       req.requestId);
  noteStatus(d.routeName, d.response.status);
  replyAndClose(fd, d.response);
  const double ms = msSince(t0);
  requestMs_.observe(ms);
  if (sRequest)
    sRequest.log("request served")
        .str("method", req.method)
        .str("path", req.path)
        .str("route", d.routeName)
        .num("status", d.response.status)
        .num("ms", ms);
}

}  // namespace ahfic::serve
