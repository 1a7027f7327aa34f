#include "bjtgen/batchft.h"

#include <cmath>
#include <memory>

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

void BatchFtExtractor::setVbe(int r, double vbe) {
  vb_[static_cast<size_t>(r)]->setWaveform(
      std::make_unique<sp::DcWaveform>(vbe));
}

std::vector<double> BatchFtExtractor::icAll() {
  const auto res = batch_.op();
  absorbBatchStats();
  std::vector<double> ic(res.x.size());
  for (size_t r = 0; r < res.x.size(); ++r) {
    sp::Solution s(&res.x[r]);
    ic[r] = -s.at(vc_[r]->branchId());
  }
  return ic;
}

std::vector<BatchFtPoint> BatchFtExtractor::measureAnalyticAt(double ic) {
  if (ic <= 0.0) throw Error("FtExtractor: ic must be > 0");
  static const obs::Counter extractions =
      obs::counter("bjtgen.ft_extractions");
  extractions.add(batch_.replicaCount());
  obs::ScopedSpan span("bjtgen.ft_extract_batch", "bjtgen");

  const size_t R = static_cast<size_t>(batch_.replicaCount());
  std::vector<BatchFtPoint> out(R);
  std::vector<double> lo(R, 0.3), hi(R, 1.15), vbe(R, 0.0);
  std::vector<char> active(R, 0);

  // Bracket check at the scalar endpoints, all dies at once.
  for (size_t r = 0; r < R; ++r) setVbe(static_cast<int>(r), 0.3);
  const std::vector<double> iLo = icAll();
  for (size_t r = 0; r < R; ++r) setVbe(static_cast<int>(r), 1.15);
  const std::vector<double> iHi = icAll();
  for (size_t r = 0; r < R; ++r) {
    if (ic <= iLo[r] || ic >= iHi[r]) {
      out[r].ok = false;
      out[r].error = "FtExtractor: target current out of bias range";
    } else {
      out[r].ok = true;
      active[r] = 1;
    }
  }

  // Masked lockstep bisection: each die walks the exact lo/hi/mid
  // trajectory of the scalar solveBias; converged or failed dies stop
  // updating but keep riding the block solves.
  bool anyActive = false;
  for (size_t r = 0; r < R; ++r) anyActive = anyActive || active[r];
  for (int iter = 0; iter < 60 && anyActive; ++iter) {
    for (size_t r = 0; r < R; ++r)
      if (active[r]) setVbe(static_cast<int>(r), 0.5 * (lo[r] + hi[r]));
    const std::vector<double> iMid = icAll();
    anyActive = false;
    for (size_t r = 0; r < R; ++r) {
      if (!active[r]) continue;
      const double mid = 0.5 * (lo[r] + hi[r]);
      if (std::fabs(iMid[r] - ic) < 1e-3 * ic) {
        vbe[r] = mid;
        active[r] = 0;
        continue;
      }
      if (iMid[r] < ic)
        lo[r] = mid;
      else
        hi[r] = mid;
      anyActive = true;
    }
  }
  for (size_t r = 0; r < R; ++r)
    if (active[r]) vbe[r] = 0.5 * (lo[r] + hi[r]);  // scalar 60-iter exit

  // Final operating point at each die's converged Vbe; fT from the
  // analytic formula on that op, exactly measureAnalyticAt's tail.
  for (size_t r = 0; r < R; ++r)
    setVbe(static_cast<int>(r), out[r].ok ? vbe[r] : 0.3);
  const auto res = batch_.op();
  absorbBatchStats();
  for (size_t r = 0; r < R; ++r) {
    if (!out[r].ok) continue;
    sp::Solution s(&res.x[r]);
    out[r].point.ic = ic;
    out[r].point.vbe = vbe[r];
    out[r].point.ft = q_[r]->opInfo(s).ft();
  }
  return out;
}

}  // namespace ahfic::bjtgen
