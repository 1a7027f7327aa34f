#include "bjtgen/bias_search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/units.h"

namespace ahfic::bjtgen {

namespace {
/// Thermal voltage at the cards' 27 C nominal temperature.
const double kVt = util::constants::thermalVoltage(27.0);
}  // namespace

double estimateVbe(const spice::BjtModel& card, double ic) {
  const double transport = card.ikf > 0.0 ? ic * (1.0 + ic / card.ikf) : ic;
  const double ib = transport / card.bf;
  return card.nf * kVt * std::log(transport / card.is) + ib * card.rb +
         (ic + ib) * card.re;
}

BiasSearch::BiasSearch(double icTarget, double vbeStart)
    : target_(icTarget) {
  if (!(icTarget > 0.0)) throw Error("FtExtractor: ic must be > 0");
  if (std::isfinite(vbeStart))
    next_ = std::clamp(vbeStart, kVbeMin + 0.01, kVbeMax - 0.01);
}

void BiasSearch::observe(double ic) {
  const double v = next_;
  last_ = v;
  ++evaluations_;
  outOfRange_ =
      (v == kVbeMin && ic >= target_) || (v == kVbeMax && ic <= target_);
  done_ = outOfRange_ || std::fabs(ic - target_) < 1e-3 * target_ ||
          evaluations_ >= kMaxEvaluations;
  if (done_) return;

  if (ic < target_) {
    lo_ = v;
    loKnown_ = true;
  } else {
    hi_ = v;
    hiKnown_ = true;
  }
  const double g = ic > 0.0 ? std::log(ic / target_)
                            : -std::numeric_limits<double>::infinity();
  // Ideal diode: d ln Ic / dVbe = 1 / Vt.
  const double slope =
      evaluations_ == 1 ? 1.0 / kVt : (g - gPrev_) / (v - vPrev_);
  vPrev_ = v;
  gPrev_ = g;

  const double mid = 0.5 * (lo_ + hi_);
  const double secant = v - g / slope;  // NaN when g or slope is not finite
  if (!(slope > 0.0))
    next_ = mid;
  else if (secant > lo_ && secant < hi_)
    next_ = secant;
  else if (secant >= hi_ && !hiKnown_)
    next_ = kVbeMax;
  else if (secant <= lo_ && !loKnown_)
    next_ = kVbeMin;
  else
    next_ = mid;
}

}  // namespace ahfic::bjtgen
