#pragma once
// ReplicaBatch: batched DC operating points across a block of
// Monte-Carlo replica circuits sharing one topology.
//
// A Monte-Carlo fT sweep solves the same two-transistor bias circuit
// hundreds of times with perturbed model cards. The scalar path pays for
// every solve what only the first deserves: Circuit construction,
// unknown layout, CSR pattern priming, symbolic sparse analysis, slot
// lookups through device memos and per-device virtual dispatch.
// ReplicaBatch performs the structure work ONCE for the whole block and
// keeps only the numbers per replica:
//
//   - one CsrPattern, primed exactly like Analyzer::primePattern
//     and structurally validated against every replica (a replica whose
//     primed pattern differs is a topology-epoch mismatch and is
//     rejected at construction);
//   - one symbolic analysis, shared into every replica's SparseLU via
//     adoptAnalysis(); numeric factorizations stay per replica, with
//     the existing pivot/fill replay (full factor on the first
//     iteration of each op, refactor replay after — the same sequence a
//     fresh Analyzer produces, so results are bit-identical);
//   - structure-of-arrays parameter tables for the nonlinear devices
//     (Gummel-Poon BJT and junction diode), evaluated by replica-strided
//     loops over AHFIC_RESTRICT spans calling the same spice/gummel.h
//     inlines as the scalar devices, then scattered into the value array
//     through slots resolved once from the shared pattern (the batch
//     analogue of the per-device StampMemo) in the devices' exact
//     load() stamp order.
//
// Newton runs in masked lockstep: each iteration evaluates all active
// replicas (phase 1, SoA) and then assembles/factors/solves each one
// (phase 2), with per-replica convergence decisions that mirror
// Analyzer::newtonInner exactly. A replica whose factorization goes
// singular or that exhausts maxNewtonIters falls back to a full
// Analyzer::op() on its own circuit (plain Newton, then gmin stepping,
// then source stepping) — again the exact scalar path.
//
// Bit-identity contract: for identical circuits and options, every
// solution ReplicaBatch::op() returns is bit-identical to what the
// default `Analyzer(ckt, opts)` returns from op() on that replica's
// circuit — fresh or reused, since every Analyzer::op() starts from a
// fresh numeric factorization. The equivalence suite
// (tests/spice_batch_test.cpp) enforces this with hex-float compares.
//
// Limits (checked at construction): nonlinear devices must be Bjt or
// Diode; every replica must share the topology of replica 0;
// AnalysisOptions::forensics is not supported.

#include <memory>
#include <vector>

#include "spice/analysis.h"
#include "spice/circuit.h"
#include "spice/csr.h"
#include "spice/sparse_lu.h"

namespace ahfic::spice {

/// Counters for one ReplicaBatch, accumulated across op() calls; the
/// same numbers are published to the metrics registry as
/// `spice.batch.*`.
struct BatchStats {
  long ops = 0;               ///< batched op() calls
  long newtonIterations = 0;  ///< summed over replicas
  long matrixSolves = 0;      ///< factor+solve passes, summed
  long fullFactors = 0;       ///< pivoting factorizations
  long refactors = 0;         ///< pivot/fill replays
  long pivotCollapses = 0;    ///< replays that collapsed to full factor
  long fallbacks = 0;         ///< replicas re-solved via Analyzer::op()
  long patternInserts = 0;    ///< always 0 unless priming missed a stamp
};

/// Batched DC operating-point engine over replica circuits. Takes
/// ownership of the circuits; like Analyzer, do not add or remove
/// devices afterwards.
class ReplicaBatch {
 public:
  struct Options {
    AnalysisOptions analysis;  ///< tolerances and limits
    /// Ablation knob: discard the recorded pivot/fill sequence before
    /// every factorization so each Newton iteration pays a full
    /// pivoting factor. Timing-only — pivots may differ from the
    /// replayed sequence, so no bit-identity claim is made with this on.
    bool forceFullFactor = false;
  };

  ReplicaBatch(std::vector<std::unique_ptr<Circuit>> replicas, Options opts);
  explicit ReplicaBatch(std::vector<std::unique_ptr<Circuit>> replicas)
      : ReplicaBatch(std::move(replicas), Options()) {}
  ~ReplicaBatch();

  int replicaCount() const { return static_cast<int>(circuits_.size()); }
  int unknownCount() const { return unknownCount_; }
  Circuit& circuit(int r) { return *circuits_[static_cast<size_t>(r)]; }
  const Circuit& circuit(int r) const {
    return *circuits_[static_cast<size_t>(r)];
  }

  /// One batched operating point: solves every replica from x = 0 under
  /// the replica's current source values (update sources between calls
  /// with VSource::setWaveform, the dcSweep idiom). x[r] is indexed by
  /// (unknown id - 1), exactly like Analyzer::op(). Throws
  /// ConvergenceError if any replica's fallback fails to converge.
  struct OpResult {
    std::vector<std::vector<double>> x;  ///< [replica][unknown id - 1]
    std::vector<int> iterations;         ///< Newton iterations per replica
    std::vector<char> fellBack;          ///< solved via full Analyzer::op()
  };
  OpResult op();

  const BatchStats& stats() const { return stats_; }
  const Options& options() const { return opts_; }

 private:
  struct BjtPlan;
  struct DiodePlan;

  void buildLayoutFor(Circuit& ckt, std::vector<Device*>& linear,
                      std::vector<Device*>& nonlinear, int& unknowns,
                      int& states) const;
  void primePatternFor(Circuit& ckt, CsrPattern& pat, int unknowns,
                       int states) const;
  void buildPlans();
  void computeStaticBaselines();
  void publishStats();
  /// Slot quad for addConductance(a, b): (a,a), (b,b), (a,b), (b,a);
  /// -1 entries touch ground and are dropped.
  void resolveQuad(int a, int b, int* quad) const;
  int resolveSlot(int row, int col) const;

  Options opts_;
  std::vector<std::unique_ptr<Circuit>> circuits_;
  int unknownCount_ = 0;
  int stateCount_ = 0;

  // Shared structure.
  CsrPattern pat_;
  std::vector<std::unique_ptr<SparseLU<double>>> lu_;  // one per replica
  std::vector<std::vector<double>> staticVals_;        // [replica][slot]
  std::vector<std::vector<Device*>> linearDevs_;       // [replica][device]
  std::vector<std::vector<Device*>> nonlinearDevs_;

  // Nonlinear device plans (SoA parameter tables + slot schedules).
  std::vector<BjtPlan> bjts_;
  std::vector<DiodePlan> diodes_;
  /// Interleave order: for each nonlinear device in circuit order, its
  /// kind (0 = bjt, 1 = diode) and index into the plan vector, so phase
  /// 2 scatters in the exact scalar device order.
  std::vector<std::pair<int, int>> nonlinearOrder_;

  // Per-op scratch, allocated once.
  std::vector<std::vector<double>> x_, xNew_;  // [replica][unknown]
  std::vector<double> vals_, rhs_;
  std::vector<double> stateScratch_, statePrevZero_, dstatePrevZero_;

  BatchStats stats_;
  BatchStats published_;
};

}  // namespace ahfic::spice
