#include "bjtgen/batchft.h"

#include <memory>

#include "bjtgen/bias_search.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/circuit.h"
#include "spice/solution.h"
#include "util/error.h"

namespace ahfic::bjtgen {

namespace sp = ahfic::spice;

BatchFtExtractor::BatchFtExtractor(std::vector<spice::BjtModel> cards,
                                   double vce, spice::AnalysisOptions opts,
                                   bool forceFullFactor)
    : vce_(vce),
      batch_([&] {
        if (vce <= 0.0) throw Error("BatchFtExtractor: vce must be > 0");
        if (cards.empty()) throw Error("BatchFtExtractor: no cards");
        // The scalar icAtVbe bias cell, one replica per card. Device
        // order matters: VB, VC, Q1 — identical unknown layout to the
        // scalar circuit is what the bit-identity contract rests on.
        std::vector<std::unique_ptr<sp::Circuit>> replicas;
        replicas.reserve(cards.size());
        for (const auto& card : cards) {
          auto ckt = std::make_unique<sp::Circuit>();
          const int c = ckt->node("c"), b = ckt->node("b");
          ckt->add<sp::VSource>("VB", b, 0, 0.0);
          ckt->add<sp::VSource>("VC", c, 0, vce);
          ckt->add<sp::Bjt>("Q1", *ckt, c, b, 0, card);
          replicas.push_back(std::move(ckt));
        }
        sp::ReplicaBatch::Options bo;
        bo.analysis = opts;
        bo.forceFullFactor = forceFullFactor;
        return sp::ReplicaBatch(std::move(replicas), bo);
      }()) {
  const int R = batch_.replicaCount();
  vb_.resize(static_cast<size_t>(R));
  vc_.resize(static_cast<size_t>(R));
  q_.resize(static_cast<size_t>(R));
  for (int r = 0; r < R; ++r) {
    auto& ckt = batch_.circuit(r);
    vb_[static_cast<size_t>(r)] =
        dynamic_cast<sp::VSource*>(ckt.findDevice("VB"));
    vc_[static_cast<size_t>(r)] =
        dynamic_cast<sp::VSource*>(ckt.findDevice("VC"));
    q_[static_cast<size_t>(r)] = dynamic_cast<sp::Bjt*>(ckt.findDevice("Q1"));
  }
}

void BatchFtExtractor::absorbBatchStats() {
  // Fold the batch's new counters into the AnalyzerStats view.
  const sp::BatchStats& bs = batch_.stats();
  sp::AnalyzerStats delta;
  delta.newtonIterations = bs.newtonIterations - seen_.newtonIterations;
  delta.matrixSolves = bs.matrixSolves - seen_.matrixSolves;
  delta.sparsePatternInserts = bs.patternInserts - seen_.patternInserts;
  delta.sparseFullFactors = bs.fullFactors - seen_.fullFactors;
  delta.sparseRefactors = bs.refactors - seen_.refactors;
  stats_ += delta;
  seen_ = bs;
}

std::vector<BatchFtPoint> BatchFtExtractor::measureAnalyticAt(double ic) {
  const size_t R = static_cast<size_t>(batch_.replicaCount());
  std::vector<BiasSearch> search;
  search.reserve(R);
  for (size_t r = 0; r < R; ++r)  // throws on ic <= 0
    search.emplace_back(ic, estimateVbe(q_[r]->model(), ic));
  static const obs::Counter extractions =
      obs::counter("bjtgen.ft_extractions");
  extractions.add(batch_.replicaCount());
  obs::ScopedSpan span("bjtgen.ft_extract_batch", "bjtgen");

  // Masked lockstep: one batched operating point per step solves every
  // still-searching die at its own trial Vbe. A die's search ends on its
  // last solve, so its fT comes from that solve, as in the scalar
  // measureAnalyticAt.
  std::vector<BatchFtPoint> out(R);
  std::vector<char> searching(R, 1);
  for (size_t left = R; left > 0;) {
    for (size_t r = 0; r < R; ++r)
      if (searching[r])
        vb_[r]->setWaveform(
            std::make_unique<sp::DcWaveform>(search[r].next()));
    const auto res = batch_.op(searching);
    absorbBatchStats();
    for (size_t r = 0; r < R; ++r) {
      if (!searching[r]) continue;
      const sp::Solution s(&res.x[r]);
      search[r].observe(-s.at(vc_[r]->branchId()));
      if (!search[r].done()) continue;
      searching[r] = 0;
      --left;
      if (search[r].outOfRange()) {
        out[r].error = BiasSearch::kOutOfRangeError;
        continue;
      }
      out[r].ok = true;
      out[r].point.ic = ic;
      out[r].point.vbe = search[r].vbe();
      out[r].point.ft = q_[r]->opInfo(s).ft();
    }
  }
  return out;
}

}  // namespace ahfic::bjtgen
