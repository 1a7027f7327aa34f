// ahficd's HTTP stack end-to-end over real sockets: submission flow,
// warm-cache identity, admission gating (422/429), protocol errors,
// concurrency, graceful drain and half-open peers.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>

#include "celldb/database.h"
#include "obs/history.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "runner/session.h"
#include "serve/api.h"
#include "serve/jobs.h"
#include "serve/server.h"
#include "util/json.h"

namespace obs = ahfic::obs;
namespace sv = ahfic::serve;
namespace u = ahfic::util;

namespace {

/// Flips the metrics master switch on for one test (without resetting
/// the registry, which other tests' static handles rely on).
struct MetricsOn {
  MetricsOn() { obs::setMetricsEnabled(true); }
  ~MetricsOn() { obs::setMetricsEnabled(false); }
};

constexpr const char* kGoodDeck = R"(serve test deck
V1 in 0 DC 1
R1 in out 1k
R2 out 0 2k
.OP
.END
)";

// Two parallel voltage sources: statically doomed (NET_VSRC_LOOP).
constexpr const char* kVloopDeck = R"(vloop deck
V1 a 0 DC 1
V2 a 0 DC 2
R1 a 0 1k
.OP
.END
)";

struct Reply {
  int status = 0;  // 0 = transport failure
  std::string body;
  std::string raw;
};

/// One blocking request/response exchange against 127.0.0.1:port.
Reply exchange(int port, const std::string& wire) {
  Reply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
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
  char chunk[8192];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
    reply.raw.append(chunk, static_cast<size_t>(n));
  ::close(fd);
  if (reply.raw.compare(0, 5, "HTTP/") != 0) return reply;
  reply.status = std::atoi(reply.raw.c_str() + reply.raw.find(' ') + 1);
  const size_t split = reply.raw.find("\r\n\r\n");
  if (split != std::string::npos) reply.body = reply.raw.substr(split + 4);
  return reply;
}

std::string getRequest(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

std::string postRequest(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: t\r\n"
         "Content-Type: application/json\r\n"
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

std::string deckSubmission(const std::string& deck) {
  u::JsonValue doc = u::JsonValue::object();
  doc.set("deck", deck);
  return doc.dump();
}

/// A full daemon stack on an ephemeral port, torn down in order.
struct TestDaemon {
  explicit TestDaemon(sv::JobServiceOptions jobOpts = {},
                      sv::ServerOptions serverOpts = {},
                      bool withHistory = true) {
    jobs = std::make_unique<sv::JobService>(session, jobOpts);
    if (withHistory)
      history = std::make_unique<ahfic::obs::MetricsHistory>(
          /*intervalSec=*/3600.0, /*capacity=*/8);
    sv::ApiContext ctx;
    ctx.jobs = jobs.get();
    ctx.db = &db;
    ctx.dbMutex = &dbMutex;
    ctx.history = history.get();
    serverOpts.port = 0;  // always ephemeral in tests
    server = std::make_unique<sv::HttpServer>(sv::buildApiRouter(ctx),
                                              serverOpts);
    server->start();
  }
  ~TestDaemon() {
    jobs->stop(/*drain=*/false);
    server->stop();
  }

  int port() const { return server->port(); }

  /// Polls GET /v1/jobs/<id> until state == "done"; returns the parsed
  /// final envelope.
  u::JsonValue waitForJob(const std::string& id) {
    for (int k = 0; k < 600; ++k) {
      const Reply r = exchange(port(), getRequest("/v1/jobs/" + id));
      if (r.status != 200) break;
      u::JsonValue doc = u::parseJson(r.body);
      if (doc.get("state").asString() == "done") return doc;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "job " << id << " never reached state=done";
    return u::JsonValue::object();
  }

  ahfic::runner::Session session;
  ahfic::celldb::CellDatabase db;
  ahfic::util::Mutex dbMutex;
  std::unique_ptr<sv::JobService> jobs;
  std::unique_ptr<ahfic::obs::MetricsHistory> history;
  std::unique_ptr<sv::HttpServer> server;
};

/// Extracts a response header value from the raw reply (nullopt-style:
/// empty when absent).
std::string headerValue(const Reply& r, const std::string& name) {
  const std::string needle = "\r\n" + name + ": ";
  const size_t pos = r.raw.find(needle);
  if (pos == std::string::npos) return "";
  const size_t start = pos + needle.size();
  return r.raw.substr(start, r.raw.find("\r\n", start) - start);
}

}  // namespace

TEST(ServeServer, HealthzAnswers) {
  TestDaemon daemon;
  const Reply r = exchange(daemon.port(), getRequest("/healthz"));
  ASSERT_EQ(r.status, 200);
  const u::JsonValue doc = u::parseJson(r.body);
  EXPECT_EQ(doc.get("status").asString(), "ok");
  EXPECT_TRUE(doc.get("accepting").asBool());
}

TEST(ServeServer, DeckSubmissionRunsToConvergedListing) {
  TestDaemon daemon;
  const Reply r = exchange(daemon.port(),
                           postRequest("/v1/jobs", deckSubmission(kGoodDeck)));
  ASSERT_EQ(r.status, 202);
  const u::JsonValue accepted = u::parseJson(r.body);
  EXPECT_EQ(accepted.get("schema").asString(), "ahfic-job-v1");
  const std::string id = accepted.get("id").asString();
  ASSERT_FALSE(id.empty());

  const u::JsonValue done = daemon.waitForJob(id);
  EXPECT_EQ(done.get("status").asString(), "ok");
  EXPECT_FALSE(done.get("cacheHit").asBool());
  const std::string listing = done.get("listing").asString();
  EXPECT_NE(listing.find("operating point"), std::string::npos);
}

TEST(ServeServer, RepeatSubmissionIsABitIdenticalCacheHit) {
  TestDaemon daemon;
  const std::string submission = deckSubmission(kGoodDeck);

  const Reply first =
      exchange(daemon.port(), postRequest("/v1/jobs", submission));
  ASSERT_EQ(first.status, 202);
  const u::JsonValue cold =
      daemon.waitForJob(u::parseJson(first.body).get("id").asString());
  ASSERT_EQ(cold.get("status").asString(), "ok");

  const Reply second =
      exchange(daemon.port(), postRequest("/v1/jobs", submission));
  ASSERT_EQ(second.status, 202);
  const u::JsonValue warm =
      daemon.waitForJob(u::parseJson(second.body).get("id").asString());
  EXPECT_TRUE(warm.get("cacheHit").asBool());
  EXPECT_EQ(warm.get("key").asString(), cold.get("key").asString());
  // The whole listing reproduces bit-for-bit from the warm session.
  EXPECT_EQ(warm.get("listing").asString(), cold.get("listing").asString());
}

TEST(ServeServer, LintRejectedDeckGets422WithStructuredReport) {
  TestDaemon daemon;
  const Reply r = exchange(
      daemon.port(), postRequest("/v1/jobs", deckSubmission(kVloopDeck)));
  ASSERT_EQ(r.status, 422);
  const u::JsonValue doc = u::parseJson(r.body);
  EXPECT_EQ(doc.get("schema").asString(), "ahfic-lint-v1");
  bool sawLoop = false;
  const u::JsonValue& diags = doc.get("diagnostics");
  for (size_t k = 0; k < diags.size(); ++k)
    if (diags.at(k).get("code").asString() == "NET_VSRC_LOOP")
      sawLoop = true;
  EXPECT_TRUE(sawLoop);
}

TEST(ServeServer, MalformedJsonBodyGets400) {
  TestDaemon daemon;
  const Reply r =
      exchange(daemon.port(), postRequest("/v1/jobs", "{not json"));
  EXPECT_EQ(r.status, 400);
  // Exactly one of deck/workload is also a 400, not a crash.
  const Reply both = exchange(
      daemon.port(),
      postRequest("/v1/jobs", "{\"deck\":\"x\",\"workload\":\"mc-ft\"}"));
  EXPECT_EQ(both.status, 400);
}

TEST(ServeServer, OversizedBodyGets413) {
  sv::ServerOptions serverOpts;
  serverOpts.limits.maxBodyBytes = 256;
  TestDaemon daemon({}, serverOpts);
  const Reply r = exchange(
      daemon.port(),
      postRequest("/v1/jobs", deckSubmission(std::string(1024, 'x'))));
  EXPECT_EQ(r.status, 413);
}

TEST(ServeServer, ChunkedUploadGets501) {
  TestDaemon daemon;
  const Reply r = exchange(daemon.port(),
                           "POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n"
                           "5\r\nhello\r\n0\r\n\r\n");
  EXPECT_EQ(r.status, 501);
}

TEST(ServeServer, QueueOverflowGets429) {
  sv::JobServiceOptions jobOpts;
  jobOpts.workers = 0;  // admit but never execute: queue fills for sure
  jobOpts.queueDepth = 2;
  TestDaemon daemon(jobOpts);

  EXPECT_EQ(exchange(daemon.port(),
                     postRequest("/v1/jobs", deckSubmission(kGoodDeck)))
                .status,
            202);
  EXPECT_EQ(exchange(daemon.port(),
                     postRequest("/v1/jobs", deckSubmission(kGoodDeck)))
                .status,
            202);
  const Reply full = exchange(
      daemon.port(), postRequest("/v1/jobs", deckSubmission(kGoodDeck)));
  ASSERT_EQ(full.status, 429);
  EXPECT_NE(full.body.find("queue full"), std::string::npos);
}

TEST(ServeServer, ConcurrentSubmissionsAllComplete) {
  sv::JobServiceOptions jobOpts;
  jobOpts.workers = 2;
  jobOpts.queueDepth = 64;
  TestDaemon daemon(jobOpts);

  constexpr int kThreads = 8;
  std::vector<std::string> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&daemon, &ids, t] {
      // Distinct decks (unique resistor value) so nothing is coalesced
      // by the result cache.
      std::string deck = "deck " + std::to_string(t) +
                         "\nV1 in 0 DC 1\nR1 in out " +
                         std::to_string(1000 + t) + "\nR2 out 0 2k\n.OP\n.END\n";
      u::JsonValue doc = u::JsonValue::object();
      doc.set("deck", deck);
      const Reply r =
          exchange(daemon.port(), postRequest("/v1/jobs", doc.dump()));
      if (r.status == 202)
        ids[static_cast<size_t>(t)] =
            u::parseJson(r.body).get("id").asString();
    });
  for (auto& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("submission " + std::to_string(t));
    ASSERT_FALSE(ids[static_cast<size_t>(t)].empty());
    const u::JsonValue done = daemon.waitForJob(ids[static_cast<size_t>(t)]);
    EXPECT_EQ(done.get("status").asString(), "ok");
  }
}

TEST(ServeServer, GracefulStopDrainsQueuedJobs) {
  sv::JobServiceOptions jobOpts;
  jobOpts.workers = 1;
  TestDaemon daemon(jobOpts);

  std::vector<std::string> ids;
  for (int k = 0; k < 3; ++k) {
    std::string deck = "drain deck " + std::to_string(k) +
                       "\nV1 in 0 DC 1\nR1 in out " +
                       std::to_string(3000 + k) + "\nR2 out 0 2k\n.OP\n.END\n";
    u::JsonValue doc = u::JsonValue::object();
    doc.set("deck", deck);
    const Reply r =
        exchange(daemon.port(), postRequest("/v1/jobs", doc.dump()));
    ASSERT_EQ(r.status, 202);
    ids.push_back(u::parseJson(r.body).get("id").asString());
  }

  // SIGTERM path: drain refuses new work but finishes what is queued.
  EXPECT_TRUE(daemon.jobs->stop(/*drain=*/true, std::chrono::minutes(1)));
  EXPECT_FALSE(daemon.jobs->accepting());
  for (const std::string& id : ids) {
    const auto out = daemon.jobs->status(id);
    ASSERT_TRUE(out.found);
    EXPECT_EQ(out.body.get("state").asString(), "done");
  }

  // New submissions after the drain are refused with 503.
  const Reply late = exchange(
      daemon.port(), postRequest("/v1/jobs", deckSubmission(kGoodDeck)));
  EXPECT_EQ(late.status, 503);
}

TEST(ServeServer, HalfOpenPeerDoesNotBlockOtherRequests) {
  sv::ServerOptions serverOpts;
  serverOpts.connectionThreads = 2;
  serverOpts.socketTimeoutSec = 1;
  TestDaemon daemon({}, serverOpts);

  // A client that connects, sends half a request and goes silent.
  const int lazy = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lazy, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(daemon.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(lazy, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const char* partial = "GET /healthz HTT";
  ASSERT_GT(::send(lazy, partial, std::strlen(partial), 0), 0);

  // Other connections keep being served while the lazy one idles.
  for (int k = 0; k < 3; ++k)
    EXPECT_EQ(exchange(daemon.port(), getRequest("/healthz")).status, 200);

  // The receive timeout eventually evicts the half-open peer (the 408
  // is best-effort; an empty read means the server just closed us).
  char buf[512];
  const ssize_t n = ::recv(lazy, buf, sizeof buf, 0);
  if (n > 0) {
    const std::string head(buf, static_cast<size_t>(n));
    EXPECT_NE(head.find("408"), std::string::npos);
  }
  ::close(lazy);
  EXPECT_EQ(exchange(daemon.port(), getRequest("/healthz")).status, 200);
}

TEST(ServeServer, StopDoesNotRaceAcceptor) {
  // stop() must leave listenFd_ alone until the acceptor that reads it
  // has been joined; under TSan any unordered close/reset shows up here.
  sv::Router router;
  router.add("GET", "/healthz", "healthz",
             [](const sv::HttpRequest&, const sv::RouteParams&) {
               return sv::HttpResponse::json(200, "{}");
             });
  sv::ServerOptions opts;
  opts.connectionThreads = 1;
  sv::HttpServer server(std::move(router), opts);
  for (int cycle = 0; cycle < 20; ++cycle) {
    server.start();
    ASSERT_TRUE(server.running());
    EXPECT_EQ(exchange(server.port(), getRequest("/healthz")).status, 200)
        << "cycle " << cycle;
    // A client connecting while stop() runs must neither hang nor crash.
    std::thread late(exchange, server.port(), getRequest("/healthz"));
    server.stop();
    late.join();
    EXPECT_FALSE(server.running());
  }
}

TEST(ServeServer, CelldbPagesServeLiveHtmlAndRegistration) {
  TestDaemon daemon;

  // Register a cell over HTTP, with the existing content validation.
  u::JsonValue doc = u::JsonValue::object();
  doc.set("name", "ACC1");
  doc.set("library", "TV");
  doc.set("category1", "Croma");
  doc.set("schematic", "R1 in out 1k\nC1 out 0 1p");
  const Reply created = exchange(
      daemon.port(), postRequest("/v1/celldb/cells", doc.dump()));
  ASSERT_EQ(created.status, 201);

  // Duplicate -> 409; invalid schematic -> 422.
  EXPECT_EQ(exchange(daemon.port(),
                     postRequest("/v1/celldb/cells", doc.dump()))
                .status,
            409);
  u::JsonValue bad = u::JsonValue::object();
  bad.set("name", "BROKEN");
  bad.set("library", "TV");
  bad.set("category1", "Croma");
  bad.set("schematic", "R1 only-two-tokens");
  EXPECT_EQ(exchange(daemon.port(),
                     postRequest("/v1/celldb/cells", bad.dump()))
                .status,
            422);

  // The index and both cell-page routes serve the registered cell.
  const Reply index = exchange(daemon.port(), getRequest("/celldb"));
  ASSERT_EQ(index.status, 200);
  EXPECT_NE(index.raw.find("Content-Type: text/html"), std::string::npos);
  EXPECT_NE(index.body.find("ACC1"), std::string::npos);
  EXPECT_NE(index.body.find("href=\"/celldb/cell/TV/ACC1\""),
            std::string::npos);

  EXPECT_EQ(exchange(daemon.port(), getRequest("/celldb/cell/TV/ACC1"))
                .status,
            200);
  const Reply byName =
      exchange(daemon.port(), getRequest("/celldb/cell/ACC1"));
  EXPECT_EQ(byName.status, 200);
  EXPECT_NE(byName.body.find("ACC1"), std::string::npos);
  EXPECT_EQ(exchange(daemon.port(), getRequest("/celldb/cell/TV/NOPE"))
                .status,
            404);
}

TEST(ServeServer, MetricsEndpointServesEnvelope) {
  TestDaemon daemon;
  const Reply r = exchange(daemon.port(), getRequest("/v1/metrics"));
  ASSERT_EQ(r.status, 200);
  const u::JsonValue doc = u::parseJson(r.body);
  EXPECT_EQ(doc.get("schema").asString(), "ahfic-metrics-v1");
}

TEST(ServeServer, UnknownJobIdGets404) {
  TestDaemon daemon;
  EXPECT_EQ(exchange(daemon.port(), getRequest("/v1/jobs/job-999")).status,
            404);
}

TEST(ServeServer, EveryResponseCarriesARequestId) {
  TestDaemon daemon;
  // No inbound id: the server mints one in its canonical req- form.
  const Reply r = exchange(daemon.port(), getRequest("/healthz"));
  ASSERT_EQ(r.status, 200);
  const std::string minted = headerValue(r, "X-Ahfic-Request-Id");
  ASSERT_FALSE(minted.empty());
  EXPECT_EQ(minted.compare(0, 4, "req-"), 0) << minted;

  // Distinct requests get distinct ids.
  const Reply r2 = exchange(daemon.port(), getRequest("/healthz"));
  EXPECT_NE(headerValue(r2, "X-Ahfic-Request-Id"), minted);

  // A client-supplied id is honored and echoed verbatim.
  const Reply echoed = exchange(
      daemon.port(),
      "GET /healthz HTTP/1.1\r\nHost: t\r\n"
      "X-Ahfic-Request-Id: req-client-chosen-42\r\n\r\n");
  EXPECT_EQ(headerValue(echoed, "X-Ahfic-Request-Id"),
            "req-client-chosen-42");
}

TEST(ServeServer, JobEnvelopeCarriesTheSubmittingRequestId) {
  TestDaemon daemon;
  const Reply r = exchange(
      daemon.port(),
      "POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
      "X-Ahfic-Request-Id: req-envelope-test-7\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: " +
          std::to_string(deckSubmission(kGoodDeck).size()) + "\r\n\r\n" +
          deckSubmission(kGoodDeck));
  ASSERT_EQ(r.status, 202);
  EXPECT_EQ(headerValue(r, "X-Ahfic-Request-Id"), "req-envelope-test-7");
  const u::JsonValue accepted = u::parseJson(r.body);
  EXPECT_EQ(accepted.get("requestId").asString(), "req-envelope-test-7");

  // The id survives into the *final* envelope, polled much later by a
  // different connection (with a different request id of its own).
  const u::JsonValue done =
      daemon.waitForJob(accepted.get("id").asString());
  EXPECT_EQ(done.get("requestId").asString(), "req-envelope-test-7");
  EXPECT_EQ(done.get("status").asString(), "ok");
}

TEST(ServeServer, RequestIdCorrelatesHeaderLogAndTrace) {
  // The tentpole's end-to-end check: one submission's id must appear in
  // (a) the response header, (b) the structured JSONL log lines of the
  // serve AND runner layers, and (c) the trace span annotations.
  const std::string jsonlPath = "serve_e2e_correlation.jsonl";
  obs::resetLoggingForTest();
  obs::setTextLogSink(false);
  obs::setJsonlLogSink(true, jsonlPath);
  obs::setLogLevel(obs::LogLevel::kDebug);
  obs::clearTrace();
  obs::setTracingEnabled(true);

  const std::string id = "req-e2e-correlation-99";
  {
    TestDaemon daemon;
    const std::string body = deckSubmission(kGoodDeck);
    const Reply r = exchange(
        daemon.port(),
        "POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
        "X-Ahfic-Request-Id: " + id + "\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
            body);
    ASSERT_EQ(r.status, 202);
    EXPECT_EQ(headerValue(r, "X-Ahfic-Request-Id"), id);  // (a)
    daemon.waitForJob(u::parseJson(r.body).get("id").asString());
  }

  obs::setTracingEnabled(false);
  obs::setJsonlLogSink(false);

  // (b) JSONL: the id is stamped on serve-layer and runner-layer lines.
  std::ifstream f(jsonlPath);
  ASSERT_TRUE(f.good());
  bool serveLine = false, runnerLine = false;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    const u::JsonValue doc = u::parseJson(line);
    if (!doc.has("request_id") ||
        doc.get("request_id").asString() != id)
      continue;
    const std::string site = doc.get("site").asString();
    if (site.compare(0, 6, "serve.") == 0) serveLine = true;
    if (site.compare(0, 7, "runner.") == 0) runnerLine = true;
  }
  f.close();
  std::remove(jsonlPath.c_str());
  EXPECT_TRUE(serveLine) << "no serve.* log line carried " << id;
  EXPECT_TRUE(runnerLine) << "no runner.* log line carried " << id;

  // (c) Trace: both the HTTP span and the job span annotate the id.
  const u::JsonValue trace = u::parseJson(obs::traceJson());
  const u::JsonValue& evs = trace.get("traceEvents");
  bool serveSpan = false, jobSpan = false;
  for (size_t k = 0; k < evs.size(); ++k) {
    const u::JsonValue& e = evs.at(k);
    if (e.get("ph").asString() != "X" || !e.has("args")) continue;
    const u::JsonValue& args = e.get("args");
    if (!args.has("request_id") ||
        args.get("request_id").asString() != id)
      continue;
    const std::string name = e.get("name").asString();
    if (name == "serve.request") serveSpan = true;
    if (name.compare(0, 4, "job:") == 0) jobSpan = true;
  }
  obs::clearTrace();
  obs::resetLoggingForTest();
  EXPECT_TRUE(serveSpan) << "serve.request span missing the id";
  EXPECT_TRUE(jobSpan) << "runner job span missing the id";
}

TEST(ServeServer, MetricsHistoryEndpointServesDeltaEnvelope) {
  MetricsOn metricsOn;
  TestDaemon daemon;
  // Generate some traffic, then take explicit samples (the test daemon
  // does not run the background sampler — determinism over realism).
  exchange(daemon.port(), getRequest("/healthz"));
  daemon.history->sampleNow();
  exchange(daemon.port(), getRequest("/healthz"));
  exchange(daemon.port(), getRequest("/healthz"));
  daemon.history->sampleNow();

  const Reply r =
      exchange(daemon.port(), getRequest("/v1/metrics/history"));
  ASSERT_EQ(r.status, 200);
  const u::JsonValue doc = u::parseJson(r.body);
  EXPECT_EQ(doc.get("schema").asString(), "ahfic-metrics-history-v1");
  EXPECT_GE(doc.get("samples").asNumber(), 2.0);
  EXPECT_EQ(doc.get("t").size(),
            static_cast<size_t>(doc.get("samples").asNumber()));
  ASSERT_TRUE(doc.get("counters").has("serve.requests"));
  // serve.requests grew between the two samples: some delta is positive.
  const u::JsonValue& wire = doc.get("counters").get("serve.requests");
  double total = 0;
  for (size_t k = 0; k < wire.get("deltas").size(); ++k)
    total += wire.get("deltas").at(k).asNumber();
  EXPECT_GE(total, 2.0);

  // window=N trims; a malformed window is a 400, not a crash.
  EXPECT_EQ(exchange(daemon.port(),
                     getRequest("/v1/metrics/history?window=3600"))
                .status,
            200);
  EXPECT_EQ(exchange(daemon.port(),
                     getRequest("/v1/metrics/history?window=banana"))
                .status,
            400);
}

TEST(ServeServer, MetricsEndpointSpeaksPrometheus) {
  MetricsOn metricsOn;
  TestDaemon daemon;
  exchange(daemon.port(), getRequest("/healthz"));
  const Reply r = exchange(
      daemon.port(), getRequest("/v1/metrics?format=prometheus"));
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.raw.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(r.body.find("# TYPE ahfic_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(r.body.find("ahfic_serve_request_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);

  EXPECT_EQ(exchange(daemon.port(),
                     getRequest("/v1/metrics?format=msgpack"))
                .status,
            400);
}

TEST(ServeServer, DebugDashboardServesLiveHtml) {
  TestDaemon daemon;
  exchange(daemon.port(), getRequest("/healthz"));
  daemon.history->sampleNow();
  daemon.history->sampleNow();

  const Reply r = exchange(daemon.port(), getRequest("/debug"));
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.raw.find("Content-Type: text/html"), std::string::npos);
  EXPECT_NE(r.body.find("<svg"), std::string::npos);
  for (const char* title : {"queue depth", "job throughput",
                            "cache hit rate", "newton iters p99"})
    EXPECT_NE(r.body.find(title), std::string::npos) << title;
  EXPECT_NE(r.body.find("/v1/metrics/history"), std::string::npos);
}

TEST(ServeServer, WindowParamIsValidatedNotCoerced) {
  MetricsOn metricsOn;
  TestDaemon daemon;
  daemon.history->sampleNow();

  // Values std::stod would have silently coerced (trailing garbage),
  // plus plain junk and negatives: all 400 with a structured error body.
  for (const char* bad : {"abc", "5x", "-1", "1e", "inf", "nan"}) {
    for (const char* route : {"/v1/metrics/history", "/debug"}) {
      const Reply r = exchange(
          daemon.port(),
          getRequest(std::string(route) + "?window=" + bad));
      EXPECT_EQ(r.status, 400) << route << "?window=" << bad;
      const u::JsonValue doc = u::parseJson(r.body);
      ASSERT_TRUE(doc.has("error")) << r.body;
      EXPECT_EQ(doc.get("error").get("status").asNumber(), 400.0);
      EXPECT_NE(doc.get("error").get("message").asString().find(bad),
                std::string::npos);
    }
  }
  // Well-formed values (including fractions and 0 = everything) pass.
  for (const char* good : {"0", "2.5", "3600"})
    EXPECT_EQ(exchange(daemon.port(),
                       getRequest(std::string("/v1/metrics/history?window=") +
                                  good))
                  .status,
              200)
        << good;
}

TEST(ServeServer, ProfileEndpointCapturesOnDemand) {
  TestDaemon daemon;

  // Parameter validation before any capture starts.
  EXPECT_EQ(exchange(daemon.port(),
                     getRequest("/v1/profile?seconds=abc")).status,
            400);
  EXPECT_EQ(exchange(daemon.port(),
                     getRequest("/v1/profile?seconds=35")).status,
            400);
  EXPECT_EQ(exchange(daemon.port(),
                     getRequest("/v1/profile?seconds=0")).status,
            400);
  EXPECT_EQ(exchange(daemon.port(),
                     getRequest("/v1/profile?format=pprof")).status,
            400);

  // A short capture returns the enveloped ahfic-profile-v1 document.
  const Reply r = exchange(
      daemon.port(), getRequest("/v1/profile?seconds=0.3"));
  ASSERT_EQ(r.status, 200);
  const u::JsonValue env = u::parseJson(r.body);
  EXPECT_EQ(env.get("schema").asString(), "ahfic-bench-v1");
  EXPECT_EQ(env.get("name").asString(), "profile");
  const u::JsonValue& payload = env.get("payload");
  EXPECT_EQ(payload.get("schema").asString(), "ahfic-profile-v1");
  EXPECT_EQ(payload.get("clock").asString(), "cpu");
  EXPECT_GE(payload.get("durationSec").asNumber(), 0.25);
  EXPECT_TRUE(payload.has("samples"));
  EXPECT_TRUE(payload.has("dropped"));
  EXPECT_TRUE(payload.has("stacks"));

  // The capture is replayable without re-profiling.
  const Reply latest =
      exchange(daemon.port(), getRequest("/v1/profile/latest"));
  ASSERT_EQ(latest.status, 200);
  EXPECT_EQ(u::parseJson(latest.body).get("name").asString(), "profile");

  // Collapsed format answers as plain text.
  const Reply collapsed = exchange(
      daemon.port(),
      getRequest("/v1/profile?seconds=0.2&format=collapsed"));
  EXPECT_EQ(collapsed.status, 200);
  EXPECT_NE(collapsed.raw.find("Content-Type: text/plain"),
            std::string::npos);
}

TEST(ServeServer, ProfileEndpointRefusesConcurrentCapture) {
  TestDaemon daemon;
  // Hold the process-wide capture slot the way a --profile flag would.
  ASSERT_TRUE(obs::startProfiling());
  const Reply r =
      exchange(daemon.port(), getRequest("/v1/profile?seconds=0.1"));
  obs::stopProfiling();
  ASSERT_EQ(r.status, 409);
  const u::JsonValue doc = u::parseJson(r.body);
  EXPECT_EQ(doc.get("error").get("status").asNumber(), 409.0);
}

TEST(ServeServer, HistoryEndpointsAnswer503WithoutASampler) {
  TestDaemon daemon({}, {}, /*withHistory=*/false);
  EXPECT_EQ(exchange(daemon.port(), getRequest("/v1/metrics/history"))
                .status,
            503);
  EXPECT_EQ(exchange(daemon.port(), getRequest("/debug")).status, 503);
}
