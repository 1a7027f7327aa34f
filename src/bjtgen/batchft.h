#pragma once
// Batched analytic fT measurement across a block of model cards — the
// Monte-Carlo data plane behind the runner's `mc-ft` workload.
//
// The scalar path (FtExtractor::measureAnalyticAt) builds one bias cell
// and Analyzer per die and moves its base source between the few
// BiasSearch operating points; it still pays one circuit construction,
// pattern priming and symbolic analysis per die. A Monte-Carlo block
// perturbs only the model card — the topology is the
// same two-source/one-transistor cell for every die — so all of that
// structure work is shared here through spice::ReplicaBatch, and each
// die's BiasSearch runs in masked lockstep: one batched operating point
// per step solves every still-searching die at its own trial Vbe.
//
// Bit-identity contract: for the same options, entry r of
// measureAnalyticAt(ic) is bit-identical (ft, vbe hex-float equal) to
// `FtExtractor(cards[r], vce, opts).measureAnalyticAt(ic)`, because
// ReplicaBatch::op() reproduces the default Analyzer::op() bit-for-bit
// and each die is driven by the same BiasSearch as the scalar solve. A
// die whose target lies outside the bias range reports ok = false with
// the scalar error text instead of throwing, so one bad die does not
// take down the block.

#include <string>
#include <vector>

#include "spice/analysis.h"
#include "spice/batch.h"
#include "spice/bjt.h"
#include "spice/models.h"
#include "spice/sources.h"

#include "bjtgen/ft.h"

namespace ahfic::bjtgen {

/// Per-card outcome of a batched measurement.
struct BatchFtPoint {
  FtPoint point;
  bool ok = false;
  std::string error;  ///< scalar FtExtractor error text when !ok
};

/// Measures analytic fT of a block of model cards biased at Vce, sharing
/// circuit structure across the block. Construction cost is one pattern
/// priming + one symbolic analysis for the whole block; per measurement
/// each die pays numeric work only.
class BatchFtExtractor {
 public:
  /// `forceFullFactor` disables the shared-structure refactorization
  /// replay (every Newton iteration pays a pivoting factorization) — an
  /// ablation knob for bench_mc_batch, not a production option.
  explicit BatchFtExtractor(std::vector<spice::BjtModel> cards,
                            double vce = 2.0,
                            spice::AnalysisOptions opts = {},
                            bool forceFullFactor = false);

  int cardCount() const { return batch_.replicaCount(); }

  /// Lockstep BiasSearch for Vbe with ic(vbe) = ic, then fT from the
  /// operating-point formula — FtExtractor::measureAnalyticAt for every
  /// card at once. Throws on ic <= 0 (scalar contract); per-die bias
  /// bracket failures are reported in the outcome instead.
  std::vector<BatchFtPoint> measureAnalyticAt(double ic);

  /// Batch-engine counters since construction.
  const spice::BatchStats& batchStats() const { return batch_.stats(); }

  /// Solver work in AnalyzerStats shape (Newton iterations, matrix
  /// solves and factorization counters summed over replicas) — the
  /// runner's manifest feed, matching FtExtractor::solverStats().
  const spice::AnalyzerStats& solverStats() const { return stats_; }
  void resetSolverStats() { stats_ = {}; }

 private:
  /// Adds the batch counters accrued since the last call to stats_.
  void absorbBatchStats();

  double vce_;
  spice::ReplicaBatch batch_;
  std::vector<spice::VSource*> vb_;  ///< per-replica base source
  std::vector<spice::VSource*> vc_;  ///< per-replica collector source
  std::vector<spice::Bjt*> q_;       ///< per-replica transistor
  spice::BatchStats seen_;           ///< batch counters already absorbed
  spice::AnalyzerStats stats_;
};

}  // namespace ahfic::bjtgen
