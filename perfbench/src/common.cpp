#include "common.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

/// Every layer a traced run can attribute time to, across workloads.
const char* const kLayers[] = {
    "spice.parse", "spice.deck",   "spice.batch", "spice.batch_scalar",
    "lint.check",  "bjtgen.ft",    "bjtgen.ring", "runner.self",
    "serve.submit", "serve.queue", "serve.poll",  "json.decode",
    "ahdl.irr",    "tuner.yield",  "other"};

void printTiming(const char* name, const std::vector<double>& v,
                 const char* unit, double value) {
  std::printf("  %-16s %.6g %s (median of %zu)\n", name, value, unit,
              v.size());
}

/// Tail latencies of the turns or requests.
void printTail(const char* kind, const std::vector<double>& v) {
  std::printf("  %s tail          p90 %.6g, p95 %.6g, p99 %.6g ms; p%.0f is "
              "the highest percentile with ten samples beyond it\n",
              kind, percentile(v, 90), percentile(v, 95), percentile(v, 99),
              supportedTailPercentile(v.size()));
}

}  // namespace

void emitEndToEnd(Report& report, const EndToEnd& e2e) {
  double turnTotal = 0.0;
  for (double s : e2e.turnS) turnTotal += s;
  const double setup = median(e2e.setupS);
  const double cpuMsPerPoint =
      e2e.points > 0.0 ? e2e.cpuS * 1e3 / e2e.points : 0.0;

  std::printf("end-to-end, gated:\n");
  std::printf("  %-16s %.6g s (wall; median of %zu samples, each the mean "
              "of %d set-ups)\n",
              "setup_s", setup, e2e.setupS.size(), e2e.setupsPerSample);
  std::printf("  %-16s %.6g ms (%.6g process CPU s, all threads, over %.0f "
              "points in %zu timed turns)\n",
              "cpu_ms_per_point", cpuMsPerPoint, e2e.cpuS, e2e.points,
              e2e.turnS.size());
  std::printf("  %-16s %.6g MiB (after the warm-up turn; %.6g MiB at the "
              "end of the run)\n",
              "peak_rss_mb", e2e.peakRssMb, peakRssMb());
  // Host wall time of the turns, printed but not gated: the shared host
  // delays the wake-ups of idle vCPUs (steal time) by an amount that
  // changes from minute to minute. On daemon_mix, where every request
  // hands off between threads several times, ten runs of the same code
  // spread its turn time by up to a third (IQR/median), past any bound a
  // gate may use. CPU time leaves steal out.
  std::printf("end-to-end, host wall time (not gated):\n");
  printTiming("turn_s", e2e.turnS, "s", median(e2e.turnS));
  std::printf("  %-16s %.6g 1/s (%.0f points over %zu turns)\n",
              "points_per_s", turnTotal > 0.0 ? e2e.points / turnTotal : 0.0,
              e2e.points, e2e.turnS.size());
  std::printf("  %-16s %.6g 1/s (%.0f requests over %zu turns)\n",
              "requests_per_s",
              turnTotal > 0.0 ? e2e.requests / turnTotal : 0.0, e2e.requests,
              e2e.turnS.size());
  printTiming("cold_p50_ms", e2e.coldMs, "ms", median(e2e.coldMs));
  printTail("cold", e2e.coldMs);
  printTiming("warm_p50_ms", e2e.warmMs, "ms", median(e2e.warmMs));
  printTail("warm", e2e.warmMs);

  report.endToEnd("setup_s", setup, "s");
  report.endToEnd("cpu_ms_per_point", cpuMsPerPoint, "ms");
  report.endToEnd("peak_rss_mb", e2e.peakRssMb, "MiB");
}

void WorkCounters::add(const ahfic::spice::AnalyzerStats& s) {
  newtonIters += s.newtonIterations;
  tranAccepted += s.acceptedSteps;
  tranRejected += s.rejectedSteps;
  gminSteps += s.gminSteps;
  sourceSteps += s.sourceSteps;
  fullFactors += s.sparseFullFactors;
  refactors += s.sparseRefactors;
  patternInserts += s.sparsePatternInserts;
}

std::string WorkCounters::line() const {
  std::ostringstream out;
  out << "newton_iters=" << newtonIters << " tran_steps_accepted="
      << tranAccepted << " tran_steps_rejected=" << tranRejected
      << " gmin_steps=" << gminSteps << " source_steps=" << sourceSteps
      << " sparse_full_factors=" << fullFactors
      << " sparse_refactors=" << refactors
      << " sparse_pattern_inserts=" << patternInserts
      << " retries=" << retries;
  return out.str();
}

void emitCounters(Report& report, const WorkCounters& c) {
  const auto d = [](long v) { return static_cast<double>(v); };
  report.layer("spice.newton_iters", d(c.newtonIters), "count");
  report.layer("spice.tran_steps_accepted", d(c.tranAccepted), "count");
  report.layer("spice.tran_steps_rejected", d(c.tranRejected), "count");
  report.layer("spice.gmin_steps", d(c.gminSteps), "count");
  report.layer("spice.source_steps", d(c.sourceSteps), "count");
  report.layer("spice.sparse_full_factors", d(c.fullFactors), "count");
  report.layer("spice.sparse_refactors", d(c.refactors), "count");
  report.layer("spice.sparse_pattern_inserts", d(c.patternInserts), "count");
  report.layer("runner.retries", d(c.retries), "count");
}

void emitLayerShares(Report& report, const SpanLog& log,
                     const std::string& unitName) {
  const auto self = log.selfTimeMs();
  const double total = log.rootTimeMs();
  const double roots = static_cast<double>(log.rootCount());
  double sum = 0.0;
  std::printf("layer self time over %zu traced %s(s), %.3f ms in all:\n",
              log.rootCount(), unitName.c_str(), total);
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double ms = it == self.end() ? 0.0 : it->second;
    sum += ms;
    const double pct = total > 0.0 ? 100.0 * ms / total : 0.0;
    if (ms > 0.0)
      std::printf("  %-20s %10.4f ms per %s  %6.2f %%\n", layer,
                  roots > 0.0 ? ms / roots : 0.0, unitName.c_str(), pct);
    report.layer(std::string(layer) + "_pct", pct, "%");
  }
  for (const auto& [layer, ms] : self) {
    bool known = false;
    for (const char* l : kLayers) known = known || layer == l;
    if (!known) {
      sum += ms;
      std::printf("  unlisted layer %s: %.4f ms\n", layer.c_str(), ms);
    }
  }
  std::printf("  layers + other = %.4f ms of %.4f ms traced (equal by "
              "construction)\n",
              sum, total);
}

double timeSetupSample(int count, const std::function<void()>& setup,
                       const std::function<void()>& clean) {
  std::int64_t ns = 0;
  for (int k = 0; k < count; ++k) {
    if (k > 0) clean();
    const std::int64_t t0 = nowNs();
    setup();
    ns += nowNs() - t0;
  }
  return static_cast<double>(ns) / 1e9 / count;
}

}  // namespace perfbench
