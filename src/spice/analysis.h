#pragma once
// Analyses: operating point (Newton with gmin/source stepping), DC sweep,
// AC small-signal, and adaptive-step transient (trapezoidal / backward
// Euler).
//
// Usage:
//   Circuit ckt; ... build ...
//   Analyzer an(ckt);
//   auto op = an.op();
//   auto tr = an.transient(100e-9, 50e-12);
//   auto vout = tr.voltage(ckt.findNode("out"));

#include <complex>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spice/circuit.h"
#include "spice/csr.h"
#include "spice/solution.h"
#include "spice/sparse_lu.h"

namespace ahfic::spice {

class ForensicsRecorder;

/// Retired backend selector. Every analysis runs on the structure-caching
/// CSR SparseLU (csr.h / sparse_lu.h); nothing reads this value. It stays
/// only so callers that still pin `solver = SolverKind::kSparse` (the
/// repository benchmark among them) keep compiling.
enum class SolverKind {
  kAuto,
  kSparse,
};

/// Tolerances and iteration limits. Defaults follow SPICE conventions.
struct AnalysisOptions {
  double reltol = 1e-3;    ///< relative convergence tolerance
  double vntol = 1e-6;     ///< absolute node-voltage tolerance [V]
  double abstol = 1e-9;    ///< absolute branch-current tolerance [A]
  double gmin = 1e-12;     ///< junction shunt conductance [S]
  int maxNewtonIters = 100;
  /// Deprecated and ignored; see SolverKind.
  SolverKind solver = SolverKind::kAuto;
  IntegMethod method = IntegMethod::kTrapezoidal;
  /// Damped-trapezoidal blend: 0 = pure trapezoidal (can sustain
  /// period-2 ringing on stiff switching circuits), 1 = backward Euler.
  /// The default adds just enough dissipation to kill the ringing while
  /// keeping near-second-order accuracy.
  double trapDamping = 0.08;
  double tranInitialStepFraction = 1e-3;  ///< first step = fraction of maxStep
  int maxStepRetries = 12;  ///< transient step halvings before giving up
  /// Convergence forensics (forensics.h): records per-iteration telemetry
  /// and attaches an "ahfic-diag-v1" report to any ConvergenceError.
  /// Off by default — the Newton hot path then carries only a null check.
  bool forensics = false;
  int forensicsDepth = 64;  ///< iteration-trail ring size when enabled
  /// Correlation id of the originating request (empty outside the
  /// daemon). Stamped onto analysis spans, convergence log lines and
  /// the "ahfic-diag-v1" report context; never affects the solve.
  std::string traceId;
};

/// Transient waveform record: one solution vector per accepted time point.
struct TranResult {
  std::vector<double> time;
  std::vector<std::vector<double>> values;  ///< [point][unknown id - 1]

  /// Waveform of node voltage `node` (unknown id == node id).
  std::vector<double> voltage(int node) const;
  /// Waveform of arbitrary unknown id (e.g. a VSource branch current).
  std::vector<double> unknown(int id) const;
};

/// AC sweep record: complex solution per frequency point.
struct AcResult {
  std::vector<double> frequency;  ///< Hz
  std::vector<std::vector<std::complex<double>>> values;

  std::complex<double> voltage(size_t point, int node) const;
  std::complex<double> unknown(size_t point, int id) const;
  /// |V(node)| in dB at `point`.
  double magnitudeDb(size_t point, int node) const;
};

/// DC sweep record: swept source value per point plus solution.
struct DcSweepResult {
  std::vector<double> sweep;
  std::vector<std::vector<double>> values;

  double voltage(size_t point, int node) const;
  double unknown(size_t point, int id) const;
};

/// Frequency grid helpers.
std::vector<double> logspace(double fStart, double fStop, int pointsPerDecade);
std::vector<double> linspace(double start, double stop, int points);

/// One noise source's share of the output noise, integrated over the
/// analysed band.
struct NoiseContribution {
  std::string label;     ///< e.g. "Q1 collector shot"
  double variance = 0.0; ///< [V^2] over the analysed band
};

/// Output-referred noise analysis result.
struct NoiseResult {
  std::vector<double> frequency;   ///< Hz
  std::vector<double> outputPsd;   ///< [V^2/Hz] at the output node
  std::vector<NoiseContribution> contributions;  ///< sorted, descending

  /// Total output noise variance over the analysed band (trapezoid).
  double totalVariance() const;
  /// RMS output noise voltage over the band.
  double rmsVoltage() const;
};

/// Statistics of the most recent analysis. Counters are reset at the
/// start of every top-level solve entry point — op(), dcSweep(),
/// transient(), ac(), noise() — so stats() read after a call covers
/// exactly that call (the runner's per-job manifests depend on this).
/// For ac()/noise(), matrixSolves counts one LU factorisation per
/// frequency point; the op-computing ac() overload's window covers the
/// internal op() plus the sweep.
///
/// This struct is the per-Analyzer façade over the global observability
/// registry (obs/metrics.h): the same counters are published as
/// `spice.*` registry metrics at the end of each entry point, so batch
/// totals aggregate across analyzers and threads without touching the
/// hot solver loop.
struct AnalyzerStats {
  long newtonIterations = 0;
  long matrixSolves = 0;
  long acceptedSteps = 0;
  long rejectedSteps = 0;
  long gminSteps = 0;
  long sourceSteps = 0;
  /// Positions added to the CSR pattern *after*
  /// the initial structural priming pass (published as
  /// `spice.sparse.pattern_inserts`). Steady-state Newton iteration
  /// performs none — a nonzero value means a device stamped a position
  /// the priming pass failed to predict.
  long sparsePatternInserts = 0;
  long sparseFullFactors = 0;  ///< pivoting factorizations
  long sparseRefactors = 0;    ///< pattern-reusing refactorizations

  /// Field-wise sum over all counters: how jobs and extractors fold the
  /// windows of several analyses into one total.
  AnalyzerStats& operator+=(const AnalyzerStats& o) {
    newtonIterations += o.newtonIterations;
    matrixSolves += o.matrixSolves;
    acceptedSteps += o.acceptedSteps;
    rejectedSteps += o.rejectedSteps;
    gminSteps += o.gminSteps;
    sourceSteps += o.sourceSteps;
    sparsePatternInserts += o.sparsePatternInserts;
    sparseFullFactors += o.sparseFullFactors;
    sparseRefactors += o.sparseRefactors;
    return *this;
  }
};

/// Analysis driver bound to one Circuit. Building the unknown layout
/// happens at construction; do not add/remove devices afterwards (create a
/// fresh Analyzer instead).
class Analyzer {
 public:
  explicit Analyzer(Circuit& ckt, AnalysisOptions opts = {});
  ~Analyzer();  // out-of-line: ForensicsRecorder is incomplete here

  /// Total number of MNA unknowns (node voltages + branch currents).
  int unknownCount() const { return unknownCount_; }

  /// DC operating point. Tries plain Newton, then gmin stepping, then
  /// source stepping. Throws ahfic::ConvergenceError when all fail.
  /// The result vector is indexed by (unknown id - 1). Every call starts
  /// from a fresh numeric factorization, so the result is bit-identical
  /// to what a newly constructed Analyzer returns under the same source
  /// values: callers may move sources with setWaveform between calls
  /// and keep one Analyzer.
  std::vector<double> op();

  /// Sweeps the DC value of the named V or I source. Each point is a full
  /// operating point, warm-started from the previous one.
  DcSweepResult dcSweep(const std::string& sourceName, double start,
                        double stop, double step);

  /// AC small-signal analysis at the given frequencies, linearised about
  /// `opSolution` (obtain it from op()). Opens a fresh stats() window
  /// counting one matrix solve per frequency point.
  AcResult ac(const std::vector<double>& frequencies,
              const std::vector<double>& opSolution);
  /// Convenience: computes the OP itself, then sweeps. The stats()
  /// window covers both the OP and the sweep.
  AcResult ac(const std::vector<double>& frequencies);

  /// Transient from t=0 (operating point as the initial condition) to
  /// `tstop`, with adaptive step capped at `maxStep`. Points before
  /// `recordFrom` are simulated but not recorded (start-up settling).
  TranResult transient(double tstop, double maxStep, double recordFrom = 0.0);

  /// Small-signal noise analysis: the output-voltage noise spectral
  /// density at `outputNode` over `frequencies`, from the thermal/shot
  /// sources of every device linearised about `opSolution`. Device
  /// contributions are integrated over the band and ranked.
  NoiseResult noise(const std::vector<double>& frequencies,
                    const std::string& outputNode,
                    const std::vector<double>& opSolution);

  const AnalyzerStats& stats() const { return stats_; }
  const AnalysisOptions& options() const { return opts_; }
  /// The convergence-forensics recorder, or nullptr when
  /// AnalysisOptions::forensics is off. Buffers cover the most recent
  /// stats window (reset with it).
  const ForensicsRecorder* forensics() const { return fx_.get(); }

 private:
  struct NewtonOutcome {
    bool converged = false;
    int iterations = 0;
  };

  void buildLayout();
  /// Starts a fresh per-call counter window (see AnalyzerStats) and
  /// clears the forensics buffers.
  void resetStats();
  /// Publishes the not-yet-published slice of stats_ to the global
  /// metrics registry as `spice.*` counters (no-op when metrics are
  /// disabled) and counts one `spice.analyses.<analysis>` invocation.
  /// Called on successful completion only: work from an analysis that
  /// threw stays unpublished (the next resetStats discards it).
  void publishStats(const char* analysis);
  /// One Newton solve at fixed context; x is both input guess and output.
  NewtonOutcome newton(std::vector<double>& x, LoadContext& ctx);
  NewtonOutcome newtonInner(std::vector<double>& x, LoadContext& ctx);
  /// Assemble + factor + solve for one Newton iteration; false on a
  /// singular system.
  bool solveIteration(const Solution& x, const LoadContext& ctx,
                      std::vector<double>& xNew);
  /// Shared AC sweep body; optionally opens a fresh stats window.
  AcResult acLinear(const std::vector<double>& frequencies,
                    const std::vector<double>& opSolution, bool freshWindow);
  std::vector<double> opWithContext(LoadContext& ctx);
  /// Builds the "ahfic-diag-v1" report from the forensics buffers (when
  /// recording) and throws ConvergenceError carrying it.
  [[noreturn]] void throwConvergence(const char* stage, double stageValue,
                                     const std::string& message);

  /// Rebuilds the cached static (linear-device) value baseline when the
  /// pattern epoch or the integrator coefficient changed.
  void prepareStatic(const Solution& x, const LoadContext& ctx);
  /// Structural discovery: runs every device through a PatternStamper
  /// under DC and transient contexts and builds the real-path pattern.
  void primePattern();
  /// Folds `pending` positions into `pat` (counts pattern inserts).
  void growPattern(CsrPattern& pat,
                   std::vector<std::pair<int, int>>& pending);
  void primeAcPattern(const Solution& op);
  /// Assembles the complex system at `omega` and factors it; throws on
  /// singularity with `what` naming the analysis.
  void acFactor(const Solution& op, double omega, const char* what);

  Circuit& ckt_;
  AnalysisOptions opts_;
  int unknownCount_ = 0;
  int stateCount_ = 0;
  AnalyzerStats stats_;
  /// Watermark of stats_ already pushed to the metrics registry, so
  /// nested entry points (transient's internal op()) publish each slice
  /// of work exactly once.
  AnalyzerStats published_;

  // Convergence forensics (null unless opts_.forensics).
  std::unique_ptr<ForensicsRecorder> fx_;
  /// Entry point currently running, for the report's `analysis` field.
  const char* analysisLabel_ = "op";
  /// Unknown id whose pivot vanished in the most recent singular solve
  /// (0 = none); resolved to a name by the report builder.
  int lastSingularUnknown_ = 0;

  // Real path: pattern + slot-ordered values, the cached static
  // baseline stamped by linear devices, and the solver bound to the
  // pattern's current epoch.
  CsrPattern pat_;
  SparseLU<double> lu_;
  std::vector<double> vals_, staticVals_, rhs_, scratchRhs_;
  std::vector<std::pair<int, int>> pending_;
  bool staticValid_ = false;
  std::uint64_t staticEpoch_ = 0;
  double staticC0_ = 0.0;

  // Complex path (AC/noise sweeps).
  CsrPattern patAc_;
  SparseLU<std::complex<double>> luAc_;
  std::vector<std::complex<double>> valsAc_, rhsAc_;
  std::vector<std::pair<int, int>> pendingAc_;
  bool patternAcPrimed_ = false;

  // Device partition for the static/dynamic stamp split: linear devices
  // have candidate-independent matrix stamps (static baseline + RHS-only
  // pass per iteration); nonlinear devices restamp in full.
  std::vector<Device*> linearDevs_, nonlinearDevs_;

  // Charge/flux states.
  std::vector<double> state_, statePrev_, dstatePrev_;
};

}  // namespace ahfic::spice
