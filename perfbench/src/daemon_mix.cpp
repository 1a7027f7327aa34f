// daemon_mix: closed-loop clients against an in-process daemon.
//
// The daemon is the real stack — runner::Session + serve::JobService +
// serve::HttpServer on loopback — with 2 job workers and 2 HTTP
// connection threads. Three client threads drain each round of the
// seeded request stream (deckgen.h): POST /v1/jobs, then GET
// /v1/jobs/<id> until state=done, one request at a time per client. A
// round (new work first, then the warm resubmissions) ends when all of
// its requests are answered; it is the daemon's design turn.
//
// Work inside the daemon is seen from outside: the envelope's queueMs
// and wallMs, and a replay of the same deck text through
// lint::lintDeckText, spice::parseDeck and spice::runDeck.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include "bjtgen/generator.h"
#include "bjtgen/shape.h"
#include "celldb/database.h"
#include "common.h"
#include "deckgen.h"
#include "http_client.h"
#include "lint/netlist.h"
#include "obs/metrics.h"
#include "runner/session.h"
#include "serve/api.h"
#include "serve/jobs.h"
#include "serve/server.h"
#include "spice/parser.h"
#include "spice/rundeck.h"
#include "util/json.h"

namespace perfbench {

namespace bg = ahfic::bjtgen;
namespace sv = ahfic::serve;
namespace u = ahfic::util;

namespace {

constexpr int kSetupsPerSample = 20;
constexpr int kRoundsPerSetupSample = 10;
constexpr int kClients = 3;
constexpr int kJobWorkers = 2;
constexpr int kConnectionThreads = 2;
// Poll schedule. Clients poll as examples/ahfic_client does (a GET right
// after the 202, then sleep and GET again), but sleep 50 us doubling up
// to 800 us instead of a flat 100 ms: at 100 ms every cold job (median
// about 8 ms) would read as one poll period and the daemon would sit
// idle, so no daemon change under 100 ms could show. The 800 us cap
// keeps the poll error near a tenth of the cold median; a first sleep
// under 50 us would be mostly the default timer slack.
constexpr int kFirstPollSleepUs = 50;
constexpr int kMaxPollSleepUs = 800;
const char* const kCardShapes[] = {"N1.2-6D", "N1.2-12D", "N1.2-24D"};

/// The daemon stack, torn down in order.
struct Daemon {
  Daemon() {
    ahfic::runner::RunnerOptions opts;
    opts.threads = 1;  // serve jobs are single-job batches
    session = std::make_unique<ahfic::runner::Session>(opts);
    sv::JobServiceOptions jobOpts;
    jobOpts.workers = kJobWorkers;
    jobs = std::make_unique<sv::JobService>(*session, jobOpts);
    sv::ApiContext ctx;
    ctx.jobs = jobs.get();
    ctx.db = &db;
    ctx.dbMutex = &dbMutex;
    sv::ServerOptions serverOpts;
    serverOpts.port = 0;
    serverOpts.connectionThreads = kConnectionThreads;
    server = std::make_unique<sv::HttpServer>(sv::buildApiRouter(ctx),
                                              serverOpts);
    server->start();
  }
  ~Daemon() {
    jobs->stop(/*drain=*/false);
    server->stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return server->port(); }

  std::unique_ptr<ahfic::runner::Session> session;
  ahfic::celldb::CellDatabase db;
  u::Mutex dbMutex;
  std::unique_ptr<sv::JobService> jobs;
  std::unique_ptr<sv::HttpServer> server;
};

/// What a client saw of one request.
struct Outcome {
  int httpStatus = 0;       ///< of the POST
  bool failed = false;      ///< an operation failure (fail_ratio)
  std::string problem;      ///< why, when failed
  bool codeOk = false;      ///< kBad: the 422 carried the expected code
  std::int64_t startNs = 0, submitEndNs = 0, endNs = 0;
  double queueMs = 0.0, execMs = 0.0;
  bool cacheHit = false;
  std::string listing, metrics;  ///< deck envelopes: the result payload
  int polls = 0, usefulPolls = 0;
  size_t responseBytes = 0;     ///< of the final envelope
  int status5xx = 0, status429 = 0;
  int attempts = 0;
  /// Traced rounds only: client-side spans (layer, start, end).
  std::vector<std::tuple<const char*, std::int64_t, std::int64_t>> spans;
};

u::JsonValue decode(const std::string& body, Outcome& o, bool traced) {
  const std::int64_t t0 = nowNs();
  u::JsonValue doc;
  try {
    doc = u::parseJson(body);
  } catch (const std::exception& e) {
    o.failed = true;
    o.problem = std::string("undecodable response: ") + e.what();
  }
  if (traced) o.spans.emplace_back("json.decode", t0, nowNs());
  return doc;
}

void noteStatus(int status, Outcome& o) {
  if (status >= 500) ++o.status5xx;
  if (status == 429) ++o.status429;
}

Outcome runRequest(int port, const MixRequest& req, bool traced) {
  Outcome o;
  o.startNs = nowNs();
  const HttpReply posted = httpPost(port, "/v1/jobs", req.body);
  o.submitEndNs = nowNs();
  o.httpStatus = posted.status;
  noteStatus(posted.status, o);
  const u::JsonValue accepted = decode(posted.body, o, traced);

  if (req.kind == MixKind::kBad) {
    o.endNs = nowNs();
    if (posted.status != 422) {
      o.failed = true;
      o.problem = "bad deck answered " + std::to_string(posted.status);
      return o;
    }
    const u::JsonValue& diags = accepted.get("diagnostics");
    for (size_t k = 0; diags.isArray() && k < diags.size(); ++k)
      if (diags.at(k).get("code").isString() &&
          diags.at(k).get("code").asString() == req.expectCode)
        o.codeOk = true;
    return o;
  }
  if (posted.status != 202 || !accepted.get("id").isString()) {
    o.failed = true;
    o.problem = "submission answered " + std::to_string(posted.status);
    o.endNs = nowNs();
    return o;
  }
  const std::string path = "/v1/jobs/" + accepted.get("id").asString();
  std::string lastState = accepted.get("state").isString()
                              ? accepted.get("state").asString()
                              : "";
  u::JsonValue done;
  int sleepUs = kFirstPollSleepUs;
  for (int k = 0; k < 100000; ++k) {
    const std::int64_t p0 = nowNs();
    const HttpReply got = httpGet(port, path);
    if (traced) o.spans.emplace_back("serve.poll", p0, nowNs());
    ++o.polls;
    noteStatus(got.status, o);
    if (got.status != 200) {
      o.failed = true;
      o.problem = "poll answered " + std::to_string(got.status);
      break;
    }
    u::JsonValue doc = decode(got.body, o, traced);
    const std::string state =
        doc.get("state").isString() ? doc.get("state").asString() : "";
    if (state != lastState) ++o.usefulPolls;
    lastState = state;
    if (state == "done") {
      o.responseBytes = got.bytes;
      done = std::move(doc);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleepUs));
    sleepUs = std::min(kMaxPollSleepUs, sleepUs * 2);
  }
  o.endNs = nowNs();
  if (!done.isObject()) {
    if (!o.failed) {
      o.failed = true;
      o.problem = "job never reached state=done";
    }
    return o;
  }
  o.queueMs = done.get("queueMs").isNumber() ? done.get("queueMs").asNumber()
                                             : 0.0;
  o.execMs = done.get("wallMs").isNumber() ? done.get("wallMs").asNumber()
                                           : 0.0;
  const std::string status =
      done.get("status").isString() ? done.get("status").asString() : "";
  if (status != "ok") {
    o.failed = true;
    o.problem = "job status " + status;
  }
  if (req.kind == MixKind::kMc) {
    if (done.get("jobsOk").isNumber() && done.get("jobsOk").asNumber() < 1) {
      o.failed = true;
      o.problem = "mc-ft-batch block failed";
    }
    return o;
  }
  o.cacheHit = done.get("cacheHit").isBool() && done.get("cacheHit").asBool();
  o.attempts = done.get("attempts").isNumber()
                   ? static_cast<int>(done.get("attempts").asNumber())
                   : 0;
  o.listing = done.get("listing").isString() ? done.get("listing").asString()
                                             : "";
  o.metrics = done.get("metrics").dump();
  return o;
}

/// One round, in two phases with kClients closed-loop clients each: the
/// new work (cold decks, bad decks, mc-ft-batch), then, once all of it is
/// answered, the warm resubmissions, so warm latency measures the cache
/// path rather than a wait behind cold solves.
std::vector<Outcome> runRound(int port, const std::vector<MixRequest>& reqs,
                              bool traced) {
  std::vector<Outcome> out(reqs.size());
  for (const bool warmPhase : {false, true}) {
    std::vector<size_t> todo;
    for (size_t i = 0; i < reqs.size(); ++i)
      if ((reqs[i].kind == MixKind::kWarm) == warmPhase) todo.push_back(i);
    std::atomic<size_t> next{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&] {
        for (size_t i; (i = next.fetch_add(1)) < todo.size();)
          out[todo[i]] = runRequest(port, reqs[todo[i]], traced);
      });
    for (std::thread& t : clients) t.join();
  }
  return out;
}

/// Replay durations of one deck through the program's public functions.
struct Replay {
  double lintMs = 0.0, parseMs = 0.0, deckMs = 0.0;
};

Replay replayDeck(const std::string& text, bool solve) {
  Replay r;
  std::int64_t t0 = nowNs();
  (void)ahfic::lint::lintDeckText(text);
  r.lintMs = static_cast<double>(nowNs() - t0) / 1e6;
  if (!solve) return r;
  t0 = nowNs();
  auto deck = ahfic::spice::parseDeck(text);
  const std::int64_t t1 = nowNs();
  std::ostringstream listing;
  ahfic::spice::runDeck(deck, listing);
  r.parseMs = static_cast<double>(t1 - t0) / 1e6;
  r.deckMs = static_cast<double>(nowNs() - t1) / 1e6;
  return r;
}

/// Exact work of `decks`, read from the metrics registry around a replay
/// (nothing else runs meanwhile); also the runDeck time it took.
WorkCounters replayCounters(const std::vector<std::string>& decks,
                            double& deckNs) {
  ahfic::obs::setMetricsEnabled(true);
  const auto before = ahfic::obs::metrics().snapshot();
  deckNs = 0.0;
  for (const std::string& text : decks) {
    auto deck = ahfic::spice::parseDeck(text);
    std::ostringstream listing;
    const std::int64_t t0 = nowNs();
    ahfic::spice::runDeck(deck, listing);
    deckNs += static_cast<double>(nowNs() - t0);
  }
  const auto delta = ahfic::obs::metrics().snapshot().since(before);
  ahfic::obs::setMetricsEnabled(false);
  WorkCounters c;
  c.newtonIters = delta.counterValue("spice.newton_iterations");
  c.tranAccepted = delta.counterValue("spice.transient.steps_accepted");
  c.tranRejected = delta.counterValue("spice.transient.steps_rejected");
  c.gminSteps = delta.counterValue("spice.gmin_steps");
  c.sourceSteps = delta.counterValue("spice.source_steps");
  c.fullFactors = delta.counterValue("spice.sparse.full_factors");
  c.refactors = delta.counterValue("spice.sparse.refactors");
  c.patternInserts = delta.counterValue("spice.sparse.pattern_inserts");
  return c;
}

double msBetween(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

}  // namespace

void runDaemonMix(const RunConfig& cfg, Report& report) {
  EndToEnd e2e;

  // One set-up: the model cards, then the daemon stack (bind, threads).
  std::vector<double> generateMs;
  const auto setUp = [&](std::vector<std::string>& cards,
                         std::unique_ptr<Daemon>& daemon) {
    const auto gen = bg::ModelGenerator::withDefaultTechnology();
    cards.clear();
    for (const char* name : kCardShapes) {
      const auto shape = bg::TransistorShape::fromName(name);
      const std::int64_t t0 = nowNs();
      (void)gen.generate(shape);
      generateMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
      cards.push_back(gen.generateSpiceLine(shape));
    }
    daemon = std::make_unique<Daemon>();
  };
  // setup_s samples: this one, whose last set-up the run uses, and one
  // every kRoundsPerSetupSample rounds, so the samples span the same
  // stretch of host time as the rounds.
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> cards;
  e2e.setupsPerSample = kSetupsPerSample;
  e2e.setupS.push_back(timeSetupSample(
      kSetupsPerSample, [&] { setUp(cards, daemon); },
      [&] { daemon.reset(); }));
  // Checked once, untimed: a request per set-up would leave thousands of
  // TIME_WAIT sockets that slow the binds of later set-ups.
  const int port = daemon->port();
  report.check(httpGet(port, "/healthz").status == 200,
               "daemon answers /healthz after set-up");

  DaemonMix mix(cfg.seed, cards);
  std::printf("daemon_mix: %d clients, %d job workers, %d connection "
              "threads, seed %llu\n",
              kClients, kJobWorkers, kConnectionThreads,
              static_cast<unsigned long long>(cfg.seed));

  // Cold twins by deck id: the payload every warm resubmission must match.
  std::map<int, std::pair<std::string, std::string>> twins;
  long badSent = 0, badCodeOk = 0, rejects = 0, warmSent = 0, warmMatch = 0;
  long s5xx = 0, s429 = 0, polls = 0, usefulPolls = 0, polledJobs = 0;
  double responseBytes = 0.0;
  long retries0 = 0;
  std::vector<std::string> round0Cold;

  std::vector<std::vector<MixRequest>> tracedRounds;
  std::vector<std::vector<Outcome>> tracedOutcomes;
  std::vector<double> plainRoundS, tracedRoundS;

  const auto account = [&](const std::vector<MixRequest>& reqs,
                           const std::vector<Outcome>& outs, bool timed) {
    for (size_t k = 0; k < reqs.size(); ++k) {
      const MixRequest& req = reqs[k];
      const Outcome& o = outs[k];
      report.operation(o.failed);
      if (o.failed)
        std::printf("request failed (%s %s): %s\n", mixKindName(req.kind),
                    req.family.c_str(), o.problem.c_str());
      s5xx += o.status5xx;
      s429 += o.status429;
      const double latencyMs = msBetween(o.startNs, o.endNs);
      if (req.kind == MixKind::kBad) {
        ++badSent;
        rejects += o.httpStatus == 422;
        badCodeOk += o.codeOk;
      } else {
        polls += o.polls;
        usefulPolls += o.usefulPolls;
        ++polledJobs;
        responseBytes += static_cast<double>(o.responseBytes);
      }
      if (req.kind == MixKind::kCold) {
        twins[req.deckId] = {o.listing, o.metrics};
        if (timed) e2e.coldMs.push_back(latencyMs);
      } else if (req.kind == MixKind::kWarm) {
        ++warmSent;
        const auto it = twins.find(req.deckId);
        warmMatch += o.cacheHit && it != twins.end() &&
                     it->second.first == o.listing &&
                     it->second.second == o.metrics && !o.listing.empty();
        if (timed) e2e.warmMs.push_back(latencyMs);
      }
      if (timed) {
        e2e.requests += 1.0;
        e2e.points += req.points;
      }
    }
  };

  // Warm-up round, untimed: its cold decks seed the warm resubmissions
  // and are the fixed unit the work counters are read on.
  {
    const auto reqs = mix.nextRound();
    const auto outs = runRound(port, reqs, false);
    account(reqs, outs, false);
    for (size_t k = 0; k < reqs.size(); ++k)
      if (reqs[k].kind == MixKind::kCold) {
        round0Cold.push_back(reqs[k].deck);
        retries0 += std::max(0, outs[k].attempts - 1);
      }
  }
  e2e.peakRssMb = peakRssMb();

  const std::int64_t windowStart = nowNs();
  for (int round = 0;
       round < 3 || msBetween(windowStart, nowNs()) < cfg.seconds * 1e3;
       ++round) {
    const bool traced = cfg.trace && round % 2 == 1;
    auto reqs = mix.nextRound();
    const std::int64_t t0 = nowNs(), cpu0 = cpuNowNs();
    auto outs = runRound(port, reqs, traced);
    const double roundS = static_cast<double>(nowNs() - t0) / 1e9;
    e2e.cpuS += static_cast<double>(cpuNowNs() - cpu0) / 1e9;
    e2e.turnS.push_back(roundS);
    (traced ? tracedRoundS : plainRoundS).push_back(roundS);
    account(reqs, outs, true);
    if (traced) {
      tracedRounds.push_back(std::move(reqs));
      tracedOutcomes.push_back(std::move(outs));
    }
    if (round % kRoundsPerSetupSample == kRoundsPerSetupSample - 1) {
      std::vector<std::string> spareCards;
      std::unique_ptr<Daemon> spare;
      e2e.setupS.push_back(timeSetupSample(
          kSetupsPerSample, [&] { setUp(spareCards, spare); },
          [&] { spare.reset(); }));
    }
  }

  report.check(badCodeOk == badSent,
               "each bad deck gets a 422 with its expected lint code");
  report.check(rejects == badSent, "lint rejects equal the bad decks sent");
  report.check(warmMatch == warmSent,
               "warm envelopes' result and listing byte-identical to their "
               "cold twins, served from cache");

  double deckNs = 0.0;
  WorkCounters counters = replayCounters(round0Cold, deckNs);
  counters.retries = retries0;
  report.check(counters.patternInserts == 0,
               "no sparse pattern inserts after priming");
  const double nsPerNewton =
      counters.newtonIters > 0 ? deckNs / counters.newtonIters : 0.0;
  std::printf("counters (warm-up round, %zu cold decks replayed): %s\n",
              round0Cold.size(), counters.line().c_str());
  std::printf("  spice.ns_per_newton %.6g ns (runDeck time / Newton "
              "iterations)\n",
              nsPerNewton);
  const double warmShare =
      static_cast<double>(e2e.warmMs.size()) /
      std::max<double>(1.0, static_cast<double>(e2e.warmMs.size() +
                                                e2e.coldMs.size()));
  std::printf("mix: %.0f requests timed, warm share of deck jobs %.3f, "
              "%ld bad decks (%ld rejected), %ld polls for %ld jobs\n",
              e2e.requests, warmShare, badSent, rejects, polls, polledJobs);
  std::printf("serve: %ld 5xx, %ld 429 answers\n", s5xx, s429);

  if (!cfg.trace) {
    emitEndToEnd(report, e2e);
    return;
  }

  emitCounters(report, counters);
  report.layer("spice.ns_per_newton", nsPerNewton, "ns");
  report.layer("bjtgen.generate_ms", median(generateMs), "ms");
  report.layer("bjtgen.cards", static_cast<double>(std::size(kCardShapes)),
               "count");
  // Job workers' busy share: envelope execution time over the rounds.
  double execMs = 0.0, tracedMs = 0.0;
  for (const auto& outs : tracedOutcomes)
    for (const Outcome& o : outs) execMs += o.execMs;
  for (double s : tracedRoundS) tracedMs += s * 1e3;
  report.layer("runner.busy_ratio",
               tracedMs > 0.0 ? execMs / (kJobWorkers * tracedMs) : 0.0,
               "ratio");
  report.layer("runner.cache_hit_ratio", warmShare, "ratio");
  report.layer("lint.rejects", static_cast<double>(rejects), "count");
  report.layer("serve.status_429", static_cast<double>(s429), "count");
  report.layer("serve.status_5xx", static_cast<double>(s5xx), "count");
  report.layer("serve.polls_per_job",
               static_cast<double>(polls) / std::max(1L, polledJobs), "ratio");
  report.layer("serve.poll_useful_ratio",
               static_cast<double>(usefulPolls) / std::max(1L, polls),
               "ratio");
  report.layer("serve.response_bytes",
               responseBytes / std::max(1L, polledJobs), "bytes");
  const double plain = median(plainRoundS), traced = median(tracedRoundS);
  const double overhead = plain > 0.0 ? 100.0 * (traced - plain) / plain : 0.0;
  std::printf("obs: traced rounds %.6g s vs untraced %.6g s median: %.3f %% "
              "tracing overhead\n",
              traced, plain, overhead);
  report.layer("obs.trace_overhead_pct", overhead, "%");

  // Request spans: client-side spans as recorded; the daemon's queue and
  // execution placed after the 202 from the envelope's queueMs/wallMs;
  // lint, parse and runDeck inside them from a replay of the same text.
  SpanLog log;
  std::vector<double> submitMs, queueMs, execMsV, decodeMs, parseMs, deckMs,
      lintMs;
  for (size_t r = 0; r < tracedRounds.size(); ++r) {
    for (size_t k = 0; k < tracedRounds[r].size(); ++k) {
      const MixRequest& req = tracedRounds[r][k];
      const Outcome& o = tracedOutcomes[r][k];
      const bool cold = req.kind == MixKind::kCold;
      const Replay rp =
          req.deck.empty() ? Replay{} : replayDeck(req.deck, cold);
      const int root = log.root(mixKindName(req.kind), o.startNs, o.endNs);
      for (const auto& [layer, a, b] : o.spans) {
        log.add(root, layer, a, b, 1);
        if (std::string(layer) == "json.decode") decodeMs.push_back(msBetween(a, b));
      }
      // The submit span outranks polls; lint nests inside it.
      log.add(root, "serve.submit", o.startNs, o.submitEndNs, 2);
      submitMs.push_back(msBetween(o.startNs, o.submitEndNs));
      if (!req.deck.empty()) {
        const auto lintEnd = std::min<std::int64_t>(
            o.submitEndNs,
            o.startNs + static_cast<std::int64_t>(rp.lintMs * 1e6));
        log.add(root, "lint.check", o.startNs, lintEnd, 3);
        lintMs.push_back(rp.lintMs);
      }
      if (req.kind == MixKind::kBad) continue;
      const std::int64_t q0 = o.submitEndNs;
      const std::int64_t q1 =
          std::min(o.endNs, q0 + static_cast<std::int64_t>(o.queueMs * 1e6));
      const std::int64_t e1 =
          std::min(o.endNs, q1 + static_cast<std::int64_t>(o.execMs * 1e6));
      log.add(root, "serve.queue", q0, q1, 2);
      log.add(root, req.kind == MixKind::kMc ? "spice.batch" : "runner.self",
              q1, e1, 2);
      queueMs.push_back(o.queueMs);
      execMsV.push_back(o.execMs);
      if (cold) {
        const std::int64_t p1 =
            std::min(e1, q1 + static_cast<std::int64_t>(rp.parseMs * 1e6));
        const std::int64_t d1 =
            std::min(e1, p1 + static_cast<std::int64_t>(rp.deckMs * 1e6));
        log.add(root, "spice.parse", q1, p1, 3);
        log.add(root, "spice.deck", p1, d1, 3);
        parseMs.push_back(rp.parseMs);
        deckMs.push_back(rp.deckMs);
      }
    }
  }
  std::printf("per request (medians): serve.submit_rtt_ms %.6g (n=%zu), "
              "serve.queue_ms %.6g, serve.exec_ms %.6g (n=%zu), "
              "json.decode_ms %.6g (n=%zu)\n",
              median(submitMs), submitMs.size(), median(queueMs),
              median(execMsV), execMsV.size(), median(decodeMs),
              decodeMs.size());
  std::printf("replay (medians): lint.ms %.6g (n=%zu), spice.parse_ms %.6g, "
              "spice.deck_ms %.6g (n=%zu cold decks)\n",
              median(lintMs), lintMs.size(), median(parseMs), median(deckMs),
              deckMs.size());
  emitLayerShares(report, log, "request");
  if (!cfg.traceOut.empty()) {
    log.writeJson(cfg.traceOut);
    std::printf("spans written to %s\n", cfg.traceOut.c_str());
  }
}

}  // namespace perfbench
