#include "bjtgen/ft.h"

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "bjtgen/bias_search.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/analysis.h"
#include "spice/bjt.h"
#include "spice/circuit.h"
#include "spice/sources.h"
#include "util/error.h"
#include "util/numeric.h"

namespace ahfic::bjtgen {

namespace sp = ahfic::spice;

FtExtractor::FtExtractor(spice::BjtModel model, double vce,
                         spice::AnalysisOptions opts)
    : model_(model), vce_(vce), opts_(opts) {
  if (vce <= 0.0) throw Error("FtExtractor: vce must be > 0");
}

void FtExtractor::absorb(const spice::AnalyzerStats& s) const { stats_ += s; }

/// Voltage-driven common-emitter bias cell: one circuit and one Analyzer
/// for a whole measurement. The base source moves between operating
/// points; Analyzer::op() starts every solve from a fresh factorization,
/// so each point is bit-identical to a freshly built cell's (and to
/// BatchFtExtractor's solve of the same die).
class FtExtractor::BiasCell {
 public:
  BiasCell(const spice::BjtModel& model, double vce,
           const sp::AnalysisOptions& opts) {
    const int c = ckt_.node("c"), b = ckt_.node("b");
    vb_ = &ckt_.add<sp::VSource>("VB", b, 0, 0.0);
    vc_ = &ckt_.add<sp::VSource>("VC", c, 0, vce);
    q_ = &ckt_.add<sp::Bjt>("Q1", ckt_, c, b, 0, model);
    an_.emplace(ckt_, opts);
  }
  // The analyzer and the source pointers refer into ckt_.
  BiasCell(const BiasCell&) = delete;
  BiasCell& operator=(const BiasCell&) = delete;

  /// Operating point at base-emitter bias `vbe`.
  void opAt(double vbe) {
    vb_->setWaveform(std::make_unique<sp::DcWaveform>(vbe));
    x_ = an_->op();
  }
  const sp::AnalyzerStats& stats() const { return an_->stats(); }
  /// Collector and base currents at the last operating point.
  double ic() const { return -sp::Solution(&x_).at(vc_->branchId()); }
  double ib() const { return -sp::Solution(&x_).at(vb_->branchId()); }
  double ft() const { return q_->opInfo(sp::Solution(&x_)).ft(); }

 private:
  sp::Circuit ckt_;
  sp::VSource* vb_ = nullptr;
  sp::VSource* vc_ = nullptr;
  sp::Bjt* q_ = nullptr;
  std::optional<sp::Analyzer> an_;
  std::vector<double> x_;
};

double FtExtractor::solveBias(BiasCell& cell, double icTarget) const {
  BiasSearch search(icTarget, estimateVbe(model_, icTarget));
  while (!search.done()) {
    cell.opAt(search.next());
    absorb(cell.stats());
    search.observe(cell.ic());
  }
  if (search.outOfRange()) throw Error(BiasSearch::kOutOfRangeError);
  return search.vbe();
}

FtPoint FtExtractor::measureAt(double ic) const {
  static const obs::Counter extractions =
      obs::counter("bjtgen.ft_extractions");
  extractions.add();
  obs::ScopedSpan span("bjtgen.ft_extract", "bjtgen");

  FtPoint pt;
  pt.ic = ic;
  BiasCell cell(model_, vce_, opts_);
  pt.vbe = solveBias(cell, ic);

  // Current-driven base reproducing the same operating point: ib from the
  // voltage-driven cell's last solve, which is the one at pt.vbe.
  const double ib = cell.ib();
  if (ib <= 0.0) throw Error("FtExtractor: non-positive base current");

  sp::Circuit ckt;
  const int c = ckt.node("c"), b = ckt.node("b");
  ckt.add<sp::ISource>("IB", 0, b, ib, /*acMag=*/1.0);
  auto& vc = ckt.add<sp::VSource>("VC", c, 0, vce_);
  ckt.add<sp::Bjt>("Q1", ckt, c, b, 0, model_);
  sp::Analyzer an(ckt, opts_);
  const auto op = an.op();
  absorb(an.stats());

  auto h21At = [&](double f) {
    const auto ac = an.ac({f}, op);
    // Each reuse-path AC call opens a fresh stats window; fold it in so
    // solverStats() keeps counting the whole extraction.
    absorb(an.stats());
    return std::abs(ac.unknown(0, vc.branchId()));
  };

  // Find a probe frequency inside the -20 dB/decade region: |h21| must
  // halve per octave (within 12%) and still be comfortably above unity
  // extrapolation noise.
  double f = 0.5e9;
  double ft = 0.0;
  for (int iter = 0; iter < 24; ++iter) {
    const double h1 = h21At(f);
    const double h2 = h21At(2.0 * f);
    const double octaveRatio = h1 / h2;
    if (std::fabs(octaveRatio - 2.0) < 0.24) {
      ft = f * h1;
      break;
    }
    if (octaveRatio < 2.0) {
      f *= 2.0;  // still on the flat beta plateau
    } else {
      f *= 0.5;  // beyond the single-pole region (higher-order rolloff)
    }
    if (f < 1e6 || f > 1e12) break;
  }
  if (ft == 0.0) {
    // Fall back to direct unity-gain search.
    double fLo = 1e6, fHi = 1e12;
    for (int i = 0; i < 48; ++i) {
      const double mid = std::sqrt(fLo * fHi);
      if (h21At(mid) > 1.0)
        fLo = mid;
      else
        fHi = mid;
    }
    ft = std::sqrt(fLo * fHi);
  }
  pt.ft = ft;
  return pt;
}

FtPoint FtExtractor::measureAnalyticAt(double ic) const {
  static const obs::Counter extractions =
      obs::counter("bjtgen.ft_extractions");
  extractions.add();
  obs::ScopedSpan span("bjtgen.ft_extract_analytic", "bjtgen");

  FtPoint pt;
  pt.ic = ic;
  BiasCell cell(model_, vce_, opts_);
  pt.vbe = solveBias(cell, ic);
  pt.ft = cell.ft();
  return pt;
}

std::vector<FtPoint> FtExtractor::sweep(
    const std::vector<double>& currents) const {
  std::vector<FtPoint> out;
  out.reserve(currents.size());
  for (double ic : currents) out.push_back(measureAt(ic));
  return out;
}

double FtExtractor::maxBiasCurrent() const {
  BiasCell cell(model_, vce_, opts_);
  cell.opAt(BiasSearch::kVbeMax);
  return cell.ic();
}

FtPeak FtExtractor::findPeak(double icMin, double icMax, int points) const {
  if (!(icMin > 0.0) || icMax <= icMin || points < 3)
    throw Error("FtExtractor::findPeak: bad scan range");
  icMax = std::min(icMax, 0.9 * maxBiasCurrent());
  if (icMax <= icMin)
    throw Error("FtExtractor::findPeak: range above device capability");
  std::vector<double> ics, fts;
  const double ratio = std::pow(icMax / icMin, 1.0 / (points - 1));
  double ic = icMin;
  for (int i = 0; i < points; ++i, ic *= ratio) {
    const auto pt = measureAt(ic);
    ics.push_back(pt.ic);
    fts.push_back(pt.ft);
  }
  const auto peak = util::findCurvePeak(ics, fts);
  return {peak.x, peak.y};
}

}  // namespace ahfic::bjtgen
