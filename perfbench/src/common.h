#pragma once
// Pieces every workload shares: the end-to-end metric set, the exact work
// counters, the layer-share metrics of the traced run, and the workload
// entry points.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"
#include "spice/analysis.h"

namespace perfbench {

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string refPath;    ///< committed tight-step ring reference (JSON)
  std::string traceOut;   ///< where the traced run writes its spans
};

/// Timings behind the end-to-end metrics of one run.
struct EndToEnd {
  /// One per sample: the mean time of `setupsPerSample` back-to-back
  /// set-ups (one set-up takes microseconds, too little to time alone).
  std::vector<double> setupS;
  int setupsPerSample = 1;
  std::vector<double> turnS;   ///< one per timed turn (or daemon round)
  std::vector<double> coldMs;  ///< latency of each computed request
  std::vector<double> warmMs;  ///< latency of each cache-served request
  /// Process CPU time (all threads) spent in the timed turns, in s.
  double cpuS = 0.0;
  double points = 0.0;         ///< design points evaluated in timed turns
  double requests = 0.0;       ///< requests completed in timed turns
  /// Peak resident memory through set-up and the warm-up turn, in MiB:
  /// the daemon's session cache keeps growing with every distinct deck
  /// it answers, so a later reading would grow with throughput.
  double peakRssMb = 0.0;
};

/// Prints the end-to-end figures with their sample counts and records
/// the gated ones (setup_s, cpu_ms_per_point, peak_rss_mb) in the report.
void emitEndToEnd(Report& report, const EndToEnd& e2e);

/// Deterministic work of one fixed unit (the warm-up turn or round).
struct WorkCounters {
  long newtonIters = 0;
  long tranAccepted = 0;
  long tranRejected = 0;
  long gminSteps = 0;
  long sourceSteps = 0;
  long fullFactors = 0;
  long refactors = 0;
  long patternInserts = 0;
  long retries = 0;

  void add(const ahfic::spice::AnalyzerStats& s);
  bool operator==(const WorkCounters&) const = default;
  std::string line() const;
};

/// Records the counters as per-layer metrics (traced run).
void emitCounters(Report& report, const WorkCounters& c);

/// Per-layer self-time shares of the traced turns/requests: one
/// "<layer>_pct" metric for every layer any workload has, plus other_pct.
/// Prints absolute ms per layer and their sum, which equals the traced
/// time by construction (the sweep partitions each root's interval).
void emitLayerShares(Report& report, const SpanLog& log,
                     const std::string& unitName);

/// One setup_s sample: runs `count` set-ups back to back, `clean` undoing
/// each one before the next (untimed), and returns the mean seconds of
/// one set-up. The last set-up is kept.
double timeSetupSample(int count, const std::function<void()>& setup,
                       const std::function<void()>& clean);

void runTranRing(const RunConfig& cfg, Report& report);
void runSpecSweep(const RunConfig& cfg, Report& report);
void runDaemonMix(const RunConfig& cfg, Report& report);

/// Runs the six Table 1 shapes at a 0.1 ps step cap and writes their
/// frequencies to `outPath` with the command and revision given.
void writeRingReference(const std::string& outPath, const std::string& command,
                        const std::string& revision);

}  // namespace perfbench
