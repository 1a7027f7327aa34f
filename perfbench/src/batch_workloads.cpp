// tran_ring and spec_sweep: design turns run as BatchRunner batches.
//
// One turn = one BatchRunner::run of the workload's batch (cache off) plus
// the evaluate/choose step on its outcomes. Every canned Job::run closure
// is wrapped; in recorded turns (the warm-up turn and the traced turns)
// the wrapper takes each job's span and its JobContext solver stats.
// Untraced turns are measured from the runner's manifest only. Nothing
// inside the program is instrumented.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "bjtgen/generator.h"
#include "bjtgen/montecarlo.h"
#include "bjtgen/process.h"
#include "bjtgen/ringosc.h"
#include "bjtgen/shape.h"
#include "common.h"
#include "runner/engine.h"
#include "runner/workloads.h"
#include "tuner/irr.h"
#include "util/json.h"

namespace perfbench {

namespace bg = ahfic::bjtgen;
namespace rn = ahfic::runner;
namespace sp = ahfic::spice;
namespace tn = ahfic::tuner;

namespace {

constexpr int kRunnerThreads = 3;
constexpr double kWindowNs = 10.0;
constexpr double kStepPs = 3.0;
constexpr double kReferenceStepPs = 0.1;
constexpr int kRingDies = 6;

/// What the wrapper saw of one job in a recorded turn.
struct JobSample {
  bool started = false;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  sp::AnalyzerStats stats;
};

/// Shared with the wrapped closures. Only recorded turns (the warm-up
/// turn and the traced turns) take each job's span and solver stats;
/// the wrappers of the other turns just call the canned closure.
struct Recording {
  std::atomic<bool> on{false};
  std::vector<JobSample> samples;
};

/// The workload's batch with per-job layer and design-point count.
struct Plan {
  std::vector<rn::Job> jobs;
  std::vector<std::string> layer;
  std::vector<double> points;
  std::shared_ptr<Recording> recording = std::make_shared<Recording>();

  /// Wraps and appends `batch`. `sparse` runs the jobs on the sparse
  /// backend (the scalar plane the batched MC plane is identical to).
  void add(std::vector<rn::Job> batch, const std::string& layerName,
           const std::vector<double>& pointsPerJob, bool sparse = false) {
    for (size_t k = 0; k < batch.size(); ++k) {
      rn::Job job = std::move(batch[k]);
      auto inner = std::move(job.run);
      const size_t slot = jobs.size();
      job.run = [inner, slot, rec = recording, sparse](rn::JobContext& ctx) {
        if (sparse) ctx.options.solver = sp::SolverKind::kSparse;
        if (!rec->on.load(std::memory_order_relaxed)) return inner(ctx);
        JobSample& s = rec->samples[slot];
        if (!s.started) {
          s.started = true;
          s.startNs = nowNs();
        }
        rn::JobResult r = inner(ctx);
        s.endNs = nowNs();
        s.stats = ctx.stats;
        return r;
      };
      jobs.push_back(std::move(job));
      layer.push_back(layerName);
      points.push_back(pointsPerJob.size() == 1 ? pointsPerJob[0]
                                                : pointsPerJob[k]);
    }
    recording->samples.resize(jobs.size());
  }

  /// Runs one turn on `runner`, recording spans and stats if asked.
  rn::BatchResult run(rn::BatchRunner& runner, bool record) {
    if (record)
      std::fill(recording->samples.begin(), recording->samples.end(),
                JobSample{});
    recording->on.store(record, std::memory_order_relaxed);
    rn::BatchResult out = runner.run(jobs);
    recording->on.store(false, std::memory_order_relaxed);
    return out;
  }
};

/// Everything a set-up builds: cards, the plan and the two runners.
struct Setup {
  Plan plan;
  std::vector<double> generateMs;  ///< one per ModelGenerator::generate
  std::unique_ptr<rn::BatchRunner> cold;  ///< cache off: the timed turns
  std::unique_ptr<rn::BatchRunner> warm;  ///< cache on, 1 thread: warm turns
};

/// The model cards of the workload's shapes, each generate call timed.
void generateCards(const bg::ModelGenerator& gen,
                   const std::vector<std::string>& shapes, Setup& setup) {
  for (const std::string& shape : shapes) {
    const std::int64_t t0 = nowNs();
    (void)gen.generate(shape);
    setup.generateMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
  }
}

void finishSetup(Setup& s, std::uint64_t baseSeed) {
  rn::RunnerOptions opts;
  opts.threads = kRunnerThreads;
  opts.baseSeed = baseSeed;
  opts.useCache = false;
  s.cold = std::make_unique<rn::BatchRunner>(opts);
  // The warm runner serves whole turns from its cache on the caller's
  // thread: starting worker threads would take longer than the cache
  // hits, and on a shared host their wake-up latency swings by tens of
  // percent from run to run.
  opts.useCache = true;
  opts.threads = 1;
  s.warm = std::make_unique<rn::BatchRunner>(opts);
}

/// A workload over BatchRunner turns.
struct BatchSpec {
  std::string name;
  int warmTurns = 1;  ///< warm turns after each timed turn
  /// Back-to-back set-ups per setup_s sample, enough for each sample to
  /// take milliseconds.
  int setupsPerSample = 1;
  std::function<std::unique_ptr<Setup>(std::uint64_t)> build;
  /// The evaluate/choose step of a turn (inside its timing).
  std::function<std::string(const rn::BatchResult&)> evaluate;
  /// Correctness checks on one turn's outcomes.
  std::function<void(const rn::BatchResult&, Report&)> check;
};

bool sameResults(const rn::BatchResult& a, const rn::BatchResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (size_t k = 0; k < a.outcomes.size(); ++k)
    if (!(a.outcomes[k].result == b.outcomes[k].result)) return false;
  return true;
}

/// The work a turn's manifest reports: what every turn can be checked on
/// without recording.
WorkCounters manifestCounters(const rn::BatchResult& batch) {
  WorkCounters c;
  for (const rn::JobOutcome& out : batch.outcomes) {
    c.newtonIters += out.record.newtonIterations;
    c.tranAccepted += out.record.acceptedSteps;
    c.tranRejected += out.record.rejectedSteps;
    c.retries += out.record.retries();
  }
  return c;
}

/// All work counters of a recorded turn: the wrappers' solver stats and
/// the manifest's retries.
WorkCounters recordedCounters(const Plan& plan, const rn::BatchResult& batch) {
  WorkCounters c;
  for (size_t k = 0; k < plan.jobs.size(); ++k) {
    c.add(plan.recording->samples[k].stats);
    c.retries += batch.outcomes[k].record.retries();
  }
  return c;
}

void runBatch(const RunConfig& cfg, Report& report, const BatchSpec& spec) {
  EndToEnd e2e;
  const std::uint64_t baseSeed = cfg.seed;

  // setup_s samples: this one, whose last set-up the run uses, and one
  // after every timed turn. One set-up takes microseconds and the host's
  // speed drifts over seconds, so the samples span the same stretch of
  // time as the turns.
  std::unique_ptr<Setup> st;
  e2e.setupsPerSample = spec.setupsPerSample;
  e2e.setupS.push_back(timeSetupSample(
      spec.setupsPerSample, [&] { st = spec.build(baseSeed); },
      [&] { st.reset(); }));
  Plan& plan = st->plan;
  std::printf("%s: %zu jobs per turn on %d runner threads, seed %llu\n",
              spec.name.c_str(), plan.jobs.size(), kRunnerThreads,
              static_cast<unsigned long long>(cfg.seed));

  // Warm-up turn, untimed and recorded: fills the warm runner's cache,
  // gives the work counters and is the reference every timed turn must
  // reproduce bit for bit.
  const rn::BatchResult reference = plan.run(*st->warm, /*record=*/true);
  spec.check(reference, report);
  std::printf("decision: %s\n", spec.evaluate(reference).c_str());
  e2e.peakRssMb = peakRssMb();
  const WorkCounters counters = recordedCounters(plan, reference);
  const WorkCounters manifest0 = manifestCounters(reference);
  std::printf("counters (one turn): %s\n", counters.line().c_str());

  SpanLog log;
  std::vector<double> tracedTurnS, plainTurnS;
  bool countersStable = true, resultsStable = true, warmHitsOk = true,
       warmSame = true;
  double busySum = 0.0, jobMsSum = 0.0, newtonSum = 0.0;
  rn::BatchResult firstCold;
  const std::int64_t windowStart = nowNs();
  const auto elapsedS = [&] {
    return static_cast<double>(nowNs() - windowStart) / 1e9;
  };

  for (int turn = 0; turn < 3 || elapsedS() < cfg.seconds; ++turn) {
    const bool traced = cfg.trace && turn % 2 == 1;
    const std::int64_t t0 = nowNs(), cpu0 = cpuNowNs();
    const rn::BatchResult batch = plan.run(*st->cold, traced);
    const std::int64_t t1 = nowNs();
    const std::string decision = spec.evaluate(batch);
    const std::int64_t t2 = nowNs();
    if (traced) {
      // Keeping the spans is the cost of tracing, so it is inside the
      // turn's timing.
      const int root = log.root("turn", t0, t2);
      log.add(root, "runner.self", t0, t1, 1);
      for (size_t k = 0; k < plan.jobs.size(); ++k) {
        const JobSample& s = plan.recording->samples[k];
        log.add(root, plan.layer[k], s.startNs, s.endNs, 2);
      }
      countersStable =
          countersStable && recordedCounters(plan, batch) == counters;
    }
    const double turnS = static_cast<double>(nowNs() - t0) / 1e9;
    e2e.cpuS += static_cast<double>(cpuNowNs() - cpu0) / 1e9;
    e2e.turnS.push_back(turnS);
    (traced ? tracedTurnS : plainTurnS).push_back(turnS);

    // Per-job latency is the runner's own wall time from its manifest.
    double jobMs = 0.0;
    for (size_t k = 0; k < plan.jobs.size(); ++k) {
      const rn::JobOutcome& out = batch.outcomes[k];
      report.operation(out.record.status == rn::JobStatus::kFailed);
      e2e.coldMs.push_back(out.record.wallMs);
      jobMs += out.record.wallMs;
      e2e.points += plan.points[k];
    }
    e2e.requests += static_cast<double>(plan.jobs.size());
    busySum += jobMs / (kRunnerThreads * static_cast<double>(t1 - t0) / 1e6);
    jobMsSum += jobMs;
    const WorkCounters fromManifest = manifestCounters(batch);
    newtonSum += static_cast<double>(fromManifest.newtonIters);
    countersStable = countersStable && fromManifest == manifest0;
    resultsStable = resultsStable && sameResults(batch, reference) &&
                    decision == spec.evaluate(reference);
    if (turn == 0) firstCold = batch;

    // Warm turns: the same batch resubmitted to the warm runner, every
    // job served from its cache and compared with the cold runner's.
    for (int w = 0; w < spec.warmTurns; ++w) {
      const std::int64_t w0 = nowNs();
      const rn::BatchResult hit = st->warm->run(plan.jobs);
      e2e.warmMs.push_back(static_cast<double>(nowNs() - w0) / 1e6);
      for (const rn::JobOutcome& o : hit.outcomes) {
        report.operation(o.record.status == rn::JobStatus::kFailed);
        warmHitsOk = warmHitsOk && o.record.cacheHit;
      }
      warmSame = warmSame && sameResults(hit, firstCold);
    }

    std::unique_ptr<Setup> spare;
    e2e.setupS.push_back(timeSetupSample(
        spec.setupsPerSample, [&] { spare = spec.build(baseSeed); },
        [&] { spare.reset(); }));
  }
  // Turn-level correctness holds for every timed turn once it holds for
  // the reference and every turn reproduces the reference bit for bit.
  report.check(resultsStable, "every timed turn reproduces the warm-up turn "
                              "bit for bit");
  report.check(countersStable, "work counters identical in every turn");
  report.check(counters.patternInserts == 0,
               "no sparse pattern inserts after priming");
  report.check(warmHitsOk, "every job of a warm turn is a cache hit");
  report.check(warmSame, "warm results identical to their twins computed "
                         "by the cold runner");

  const double nsPerNewton = newtonSum > 0.0 ? jobMsSum * 1e6 / newtonSum : 0.0;
  std::printf("  spice.ns_per_newton %.6g ns (job wall time / Newton "
              "iterations, timed turns)\n",
              nsPerNewton);
  const double genMs = median(st->generateMs);
  std::printf("bjtgen: %zu cards in set-up, generate %.6g ms median\n",
              st->generateMs.size(), genMs);
  const double busy = busySum / static_cast<double>(e2e.turnS.size());
  std::printf("runner: busy ratio %.4f (job time / (%d threads x run "
              "wall)), cache off in timed turns\n",
              busy, kRunnerThreads);

  if (!cfg.trace) {
    emitEndToEnd(report, e2e);
    return;
  }
  emitCounters(report, counters);
  report.layer("spice.ns_per_newton", nsPerNewton, "ns");
  report.layer("bjtgen.generate_ms", genMs, "ms");
  report.layer("bjtgen.cards", static_cast<double>(st->generateMs.size()),
               "count");
  report.layer("runner.busy_ratio", busy, "ratio");
  // Timed jobs served from cache: those of the warm turns (cold turns
  // run with the cache off).
  const double warmJobs = static_cast<double>(e2e.warmMs.size() *
                                              plan.jobs.size());
  report.layer("runner.cache_hit_ratio",
               warmJobs / (warmJobs + static_cast<double>(e2e.coldMs.size())),
               "ratio");
  report.layer("lint.rejects", 0.0, "count");
  report.layer("serve.status_429", 0.0, "count");
  report.layer("serve.status_5xx", 0.0, "count");
  report.layer("serve.polls_per_job", 0.0, "ratio");
  report.layer("serve.poll_useful_ratio", 0.0, "ratio");
  report.layer("serve.response_bytes", 0.0, "bytes");
  const double plain = median(plainTurnS), traced = median(tracedTurnS);
  const double overhead = plain > 0.0 ? 100.0 * (traced - plain) / plain : 0.0;
  std::printf("obs: traced turns %.6g s (n=%zu) vs untraced %.6g s (n=%zu) "
              "median: %.3f %% tracing overhead\n",
              traced, tracedTurnS.size(), plain, plainTurnS.size(), overhead);
  report.layer("obs.trace_overhead_pct", overhead, "%");
  emitLayerShares(report, log, "turn");
  if (!cfg.traceOut.empty()) {
    log.writeJson(cfg.traceOut);
    std::printf("spans written to %s\n", cfg.traceOut.c_str());
  }
}

// ---- tran_ring ----

bg::RingOscillatorSpec ringSpec(const bg::ModelGenerator& gen) {
  bg::RingOscillatorSpec spec;
  spec.followerModel = gen.generate("N1.2-6D");
  return spec;
}

std::string bestShape(const rn::BatchResult& batch, size_t shapes) {
  size_t best = 0;
  for (size_t s = 1; s < shapes; ++s)
    if (batch.outcomes[s].result.get("frequency") >
        batch.outcomes[best].result.get("frequency"))
      best = s;
  return bg::fig8Shapes()[best].name();
}

/// Largest |f - f_ref| / f_ref over the six shapes, in percent.
double ringFreqErrPct(const rn::BatchResult& batch, const std::string& refPath,
                      std::string& detail) {
  std::ifstream in(refPath);
  if (!in) throw ahfic::Error("cannot read ring reference " + refPath);
  std::stringstream text;
  text << in.rdbuf();
  const ahfic::util::JsonValue ref = ahfic::util::parseJson(text.str());
  const ahfic::util::JsonValue& shapes = ref.get("shapes");
  const auto names = bg::fig8Shapes();
  double worst = 0.0;
  std::ostringstream d;
  for (size_t s = 0; s < names.size(); ++s) {
    double fRef = 0.0;
    for (size_t k = 0; k < shapes.size(); ++k)
      if (shapes.at(k).get("shape").asString() == names[s].name())
        fRef = shapes.at(k).get("frequencyHz").asNumber();
    const double f = batch.outcomes[s].result.get("frequency");
    const double err = fRef > 0.0 ? 100.0 * std::fabs(f - fRef) / fRef : 1e9;
    worst = std::max(worst, err);
    char buf[128];
    std::snprintf(buf, sizeof buf, "  %-10s %.6g GHz vs %.6g GHz ref: %.3f %%\n",
                  names[s].name().c_str(), f / 1e9, fRef / 1e9, err);
    d << buf;
  }
  detail = d.str();
  return worst;
}

BatchSpec tranRingSpec(const RunConfig& cfg) {
  BatchSpec spec;
  spec.name = "tran_ring";
  spec.warmTurns = 500;
  spec.setupsPerSample = 500;
  spec.build = [](std::uint64_t baseSeed) {
    auto s = std::make_unique<Setup>();
    const auto gen = bg::ModelGenerator::withDefaultTechnology();
    std::vector<std::string> names;
    for (const auto& shape : bg::fig8Shapes()) names.push_back(shape.name());
    names.push_back("N1.2-6D");  // the fixed follower
    generateCards(gen, names, *s);
    const auto spec0 = ringSpec(gen);
    const auto shapes = bg::fig8Shapes();
    s->plan.add(rn::ringShapeJobs(gen, shapes, spec0, kWindowNs, kStepPs),
                "bjtgen.ring", {1.0});
    s->plan.add(rn::monteCarloRingJobs(bg::defaultTechnology(),
                                       bg::ProcessVariation{}, kRingDies,
                                       spec0, "N1.2-12D", "N1.2-6D",
                                       kWindowNs, kStepPs),
                "bjtgen.ring", {1.0});
    finishSetup(*s, baseSeed);
    return s;
  };
  spec.evaluate = [](const rn::BatchResult& batch) {
    return "best shape " + bestShape(batch, bg::fig8Shapes().size());
  };
  const std::string refPath = cfg.refPath;
  spec.check = [refPath](const rn::BatchResult& batch, Report& report) {
    const size_t shapes = bg::fig8Shapes().size();
    bool allOk = true, allOsc = true;
    for (size_t k = 0; k < batch.outcomes.size(); ++k) {
      allOk = allOk && batch.outcomes[k].ok();
      if (k < shapes)
        allOsc = allOsc && batch.outcomes[k].result.get("oscillating") > 0.5;
    }
    report.check(allOk, "every ring job succeeds");
    report.check(allOsc, "all six Table 1 shapes oscillate");
    const std::string best = bestShape(batch, shapes);
    report.check(best == "N1.2-12D",
                 "Table 1 best shape is N1.2-12D (got " + best + ")");
    std::string detail;
    const double err = ringFreqErrPct(batch, refPath, detail);
    std::printf("ring_freq_err_pct %.6g %% (3 ps cap vs the committed "
                "0.1 ps reference, worst of six shapes)\n%s",
                err, detail.c_str());
    report.check(err < 5.0, "Table 1 frequencies within 5 % of the "
                            "tight-step reference");
  };
  return spec;
}

// ---- spec_sweep ----

constexpr int kMcDies = 32;
constexpr int kMcBlock = 16;
constexpr double kMcIc = 3e-3;
constexpr int kIrrGridPoints = 2;
constexpr int kIrrYieldCorners = 2;
constexpr int kIrrChunks = 4;
constexpr int kIrrSamples = 4000;

std::vector<double> fig9Currents() {
  std::vector<double> currents;
  for (double ic = 0.05e-3; ic <= 20.001e-3; ic *= std::pow(10.0, 0.125))
    currents.push_back(ic);
  return currents;
}

/// The minority Fig. 5 share of the turn: seeded grid points, each one
/// simulateImageRejectionDb run (plus the analytic value to check it).
std::vector<rn::Job> irrGridJobs(std::uint64_t seed) {
  const double gains[] = {0.01, 0.03, 0.05, 0.07, 0.09};
  const double phases[] = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0};
  std::vector<rn::Job> jobs;
  for (int k = 0; k < kIrrGridPoints; ++k) {
    const std::uint64_t h = rn::deriveJobSeed(seed ^ 0xF165ull, k);
    tn::ImageRejectImpairments imp;
    imp.loPhaseErrorDeg = phases[h % 9];
    imp.gainImbalance = gains[(h >> 8) % 5];
    rn::Job job;
    char key[96];
    std::snprintf(key, sizeof key, "fig5/phi=%g/g=%g/#%d",
                  imp.loPhaseErrorDeg, imp.gainImbalance, k);
    job.key = key;
    job.run = [imp](rn::JobContext&) {
      rn::JobResult r;
      r.set("irrDb", tn::simulateImageRejectionDb(imp));
      r.set("analyticDb", tn::analyticImageRejectionDb(imp.loPhaseErrorDeg,
                                                       imp.gainImbalance));
      return r;
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<rn::IrrYieldCorner> irrCorners(std::uint64_t seed) {
  std::vector<rn::IrrYieldCorner> corners;
  for (int k = 0; k < kIrrYieldCorners; ++k) {
    const std::uint64_t h = rn::deriveJobSeed(seed ^ 0x71E1Dull, k);
    rn::IrrYieldCorner c;
    c.sigmaPhaseDeg = 0.5 + static_cast<double>(h % 1000) / 1000.0 * 2.0;
    c.sigmaGain = 0.005 + static_cast<double>((h >> 16) % 1000) / 1000.0 * 0.03;
    corners.push_back(c);
  }
  return corners;
}

BatchSpec specSweepSpec() {
  BatchSpec spec;
  spec.name = "spec_sweep";
  spec.warmTurns = 5;
  spec.setupsPerSample = 10;
  // Job order: scalar MC dies first, so die d runs at batch index d and
  // draws the seed the batched plane uses for it.
  spec.build = [](std::uint64_t baseSeed) {
    auto s = std::make_unique<Setup>();
    const auto gen = bg::ModelGenerator::withDefaultTechnology();
    std::vector<std::string> names;
    for (const auto& shape : bg::fig9Shapes()) names.push_back(shape.name());
    generateCards(gen, names, *s);
    const auto tech = bg::defaultTechnology();
    s->plan.add(rn::monteCarloFtJobs(tech, bg::ProcessVariation{}, kMcDies,
                                     "N1.2-12D", kMcIc),
                "spice.batch_scalar", {1.0}, /*sparse=*/true);
    std::vector<double> blockDies;
    for (int d0 = 0; d0 < kMcDies; d0 += kMcBlock)
      blockDies.push_back(std::min(kMcBlock, kMcDies - d0));
    s->plan.add(rn::monteCarloFtBatchJobs(tech, bg::ProcessVariation{},
                                          kMcDies, "N1.2-12D", kMcIc,
                                          kMcBlock, baseSeed),
                "spice.batch", blockDies);
    const auto shapes = bg::fig9Shapes();
    s->plan.add(rn::fig9SweepJobs(gen, shapes, fig9Currents()), "bjtgen.ft",
                {1.0});
    s->plan.add(rn::ftPeakJobs(gen, shapes, 0.05e-3, 40e-3, 19), "bjtgen.ft",
                {1.0});
    s->plan.add(irrGridJobs(baseSeed), "ahdl.irr", {1.0});
    s->plan.add(rn::irrYieldJobs(irrCorners(baseSeed), 30.0, kIrrSamples,
                                 kIrrChunks),
                "tuner.yield", {1.0});
    finishSetup(*s, baseSeed);
    return s;
  };
  const size_t nShapes = bg::fig9Shapes().size();
  const size_t peaks0 = kMcDies + (kMcDies + kMcBlock - 1) / kMcBlock +
                        nShapes * fig9Currents().size();
  const size_t irr0 = peaks0 + nShapes;
  const size_t yield0 = irr0 + kIrrGridPoints;
  spec.evaluate = [=](const rn::BatchResult& batch) {
    // Choose: the shape whose fT peak sits closest to the 3 mA operating
    // current, and the yield of each IRR corner.
    size_t best = 0;
    for (size_t s = 1; s < nShapes; ++s)
      if (std::fabs(std::log(batch.outcomes[peaks0 + s].result.get("icPeak") /
                             kMcIc)) <
          std::fabs(std::log(batch.outcomes[peaks0 + best].result.get(
                                 "icPeak") /
                             kMcIc)))
        best = s;
    const std::vector<rn::JobOutcome> yieldOut(
        batch.outcomes.begin() + static_cast<long>(yield0),
        batch.outcomes.end());
    const auto yields =
        rn::reduceIrrYield(yieldOut, kIrrYieldCorners, kIrrChunks);
    std::ostringstream d;
    d << "shape for 3 mA " << bg::fig9Shapes()[best].name() << ", IRR yield";
    for (const auto& y : yields) d << " " << y.yield();
    return d.str();
  };
  spec.check = [=](const rn::BatchResult& batch, Report& report) {
    bool allOk = true;
    for (const auto& out : batch.outcomes) allOk = allOk && out.ok();
    report.check(allOk, "every spec_sweep job succeeds");

    // Batched MC fT per die: hex-float identical to the scalar plane.
    bool identical = true;
    for (int d = 0; d < kMcDies; ++d) {
      const auto& scalar = batch.outcomes[static_cast<size_t>(d)].result;
      const auto& block =
          batch.outcomes[static_cast<size_t>(kMcDies + d / kMcBlock)].result;
      const std::string tag = "die" + std::to_string(d);
      for (const char* m : {"ft", "vbe"}) {
        const double a = scalar.get(m), b = block.get(tag + "/" + m, -1.0);
        identical = identical && std::memcmp(&a, &b, sizeof a) == 0;
      }
    }
    report.check(identical, "batched MC fT per die is hex-float identical "
                            "to the scalar plane");

    bool rising = true;
    for (size_t s = 1; s < nShapes; ++s)
      rising = rising && batch.outcomes[peaks0 + s].result.get("icPeak") >
                             batch.outcomes[peaks0 + s - 1].result.get("icPeak");
    report.check(rising, "Fig. 9 peak currents rise with emitter length");

    bool irrClose = true;
    for (size_t k = irr0; k < yield0; ++k) {
      const auto& r = batch.outcomes[k].result;
      irrClose = irrClose &&
                 std::fabs(r.get("irrDb") - r.get("analyticDb")) <= 1.0;
    }
    report.check(irrClose, "Fig. 5 simulated IRR within 1 dB of the "
                           "analytic value");

    const std::vector<rn::JobOutcome> yieldOut(
        batch.outcomes.begin() + static_cast<long>(yield0),
        batch.outcomes.end());
    bool samplesOk = true;
    for (const auto& y :
         rn::reduceIrrYield(yieldOut, kIrrYieldCorners, kIrrChunks))
      samplesOk = samplesOk && y.samples == kIrrSamples;
    report.check(samplesOk, "IRR yield chunks cover every sample");
  };
  return spec;
}

}  // namespace

void runTranRing(const RunConfig& cfg, Report& report) {
  runBatch(cfg, report, tranRingSpec(cfg));
}

void runSpecSweep(const RunConfig& cfg, Report& report) {
  runBatch(cfg, report, specSweepSpec());
}

void writeRingReference(const std::string& outPath, const std::string& command,
                        const std::string& revision) {
  const auto gen = bg::ModelGenerator::withDefaultTechnology();
  const auto shapes = bg::fig8Shapes();
  rn::RunnerOptions opts;
  opts.threads = kRunnerThreads;
  opts.useCache = false;
  rn::BatchRunner runner(opts);
  const auto batch = runner.run(
      rn::ringShapeJobs(gen, shapes, ringSpec(gen), kWindowNs,
                        kReferenceStepPs));
  ahfic::util::JsonValue rows = ahfic::util::JsonValue::array();
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto& out = batch.outcomes[s];
    if (!out.ok() || out.result.get("oscillating") < 0.5)
      throw ahfic::Error("reference run failed for " + shapes[s].name());
    ahfic::util::JsonValue row = ahfic::util::JsonValue::object();
    row.set("shape", shapes[s].name());
    row.set("frequencyHz", out.result.get("frequency"));
    rows.push(std::move(row));
  }
  ahfic::util::JsonValue doc = ahfic::util::JsonValue::object();
  doc.set("schema", "perfbench-ring-reference-v1");
  doc.set("command", command);
  doc.set("revision", revision);
  doc.set("windowNs", kWindowNs);
  doc.set("stepCapPs", kReferenceStepPs);
  doc.set("shapes", std::move(rows));
  std::ofstream f(outPath);
  if (!f) throw ahfic::Error("cannot write " + outPath);
  f << doc.dump(2) << "\n";
  std::printf("wrote %s (%.1f s)\n", outPath.c_str(), batch.manifest.wallMs / 1e3);
}

}  // namespace perfbench
